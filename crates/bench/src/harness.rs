//! Shared experiment context: scale presets and a lazily-trained pipeline
//! reused across experiments within one invocation.

use std::sync::OnceLock;

use evax_core::gan::AmGanConfig;
use evax_core::kfold::KfoldConfig;
use evax_core::par::Parallelism;
use evax_core::prelude::{CollectConfig, EvaxConfig, EvaxPipeline};

/// How much compute an experiment run spends. The paper's corpus sizes
/// (1.2M evasive samples, 30 simpoints/benchmark) are scaled down so the
/// whole suite runs in minutes; `Full` gets closer at the cost of hours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Minutes-scale run (default).
    Small,
    /// Larger corpora and longer training.
    Full,
}

impl ExperimentScale {
    /// Parses `small`/`full`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "small" => Some(ExperimentScale::Small),
            "full" => Some(ExperimentScale::Full),
            _ => None,
        }
    }

    /// The pipeline configuration for this scale.
    pub fn evax_config(self) -> EvaxConfig {
        match self {
            ExperimentScale::Small => EvaxConfig {
                collect: CollectConfig {
                    interval: 100,
                    runs_per_attack: 2,
                    runs_per_benign: 4,
                    max_instrs: 8_000,
                    benign_scale: 8_000,
                    ..Default::default()
                },
                gan: AmGanConfig {
                    epochs: 60,
                    hidden_width: 96,
                    generator_hidden: 3,
                    ..AmGanConfig::small()
                },
                augment_per_class: 80,
                augment_benign: 300,
                ..Default::default()
            },
            ExperimentScale::Full => EvaxConfig {
                collect: CollectConfig {
                    interval: 100,
                    runs_per_attack: 6,
                    runs_per_benign: 12,
                    max_instrs: 20_000,
                    benign_scale: 20_000,
                    ..Default::default()
                },
                gan: AmGanConfig {
                    epochs: 120,
                    ..Default::default()
                },
                augment_per_class: 250,
                augment_benign: 1_000,
                ..Default::default()
            },
        }
    }

    /// Fuzz programs per tool for the evasive corpora (paper: 1.2M samples;
    /// scaled).
    pub fn fuzz_programs_per_tool(self) -> usize {
        match self {
            ExperimentScale::Small => 8,
            ExperimentScale::Full => 40,
        }
    }

    /// Instruction budget for performance (overhead/IPC) runs.
    pub fn perf_instrs(self) -> u64 {
        match self {
            ExperimentScale::Small => 60_000,
            ExperimentScale::Full => 400_000,
        }
    }
}

/// Runs `f` and returns its result together with elapsed wall-clock
/// seconds. The one timing primitive the bench crate uses: the experiment
/// runner's per-experiment `secs` and the `fleet` binary's wall-clock and
/// drain figures both come from here. They are single-run figures with no
/// spread; repeated host-time measurement lives in `perfbench`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = std::time::Instant::now();
    let result = f();
    (result, started.elapsed().as_secs_f64())
}

/// The experiment context: seed, scale, thread budget, and the shared
/// trained pipeline.
pub struct Harness {
    /// RNG seed for every experiment.
    pub seed: u64,
    /// Compute scale.
    pub scale: ExperimentScale,
    /// The run's worker-thread budget (`--threads`), written into every
    /// collection and k-fold configuration the harness builds.
    pub parallelism: Parallelism,
    pipeline: OnceLock<EvaxPipeline>,
}

impl Harness {
    /// Creates a harness.
    pub fn new(seed: u64, scale: ExperimentScale, parallelism: Parallelism) -> Self {
        Harness {
            seed,
            scale,
            parallelism,
            pipeline: OnceLock::new(),
        }
    }

    /// The scale's pipeline configuration, collecting within the run's
    /// thread budget.
    pub fn evax_config(&self) -> EvaxConfig {
        let mut cfg = self.scale.evax_config();
        cfg.collect.parallelism = self.parallelism;
        cfg
    }

    /// The k-fold configuration of the zero-day experiments (Fig. 19 and
    /// the §VIII-C headlines): the scale's pipeline settings, two fuzz
    /// programs per tool, folds fanned out within the run's thread budget.
    pub fn kfold_config(&self) -> KfoldConfig {
        let evax_cfg = self.evax_config();
        KfoldConfig {
            gan: evax_cfg.gan,
            detector: evax_cfg.detector,
            augment_per_class: evax_cfg.augment_per_class,
            augment_benign: evax_cfg.augment_benign,
            fuzz_programs_per_tool: 2,
            collect: evax_cfg.collect,
            tpr_target: evax_cfg.tpr_target,
            parallelism: self.parallelism,
        }
    }

    /// The shared pipeline, trained on first use. Thread-safe: concurrent
    /// experiments block on the one training run instead of repeating it.
    pub fn pipeline(&self) -> &EvaxPipeline {
        self.pipeline.get_or_init(|| {
            eprintln!("[harness] training EVAX pipeline (collect + AM-GAN + vaccinate)...");
            let p = EvaxPipeline::run(&self.evax_config(), self.seed);
            eprintln!(
                "[harness] pipeline ready: {} train samples, {} holdout",
                p.train.len(),
                p.holdout.len()
            );
            p
        })
    }

    /// Stage timings of the shared pipeline, if any experiment has trained
    /// it (the `--json` summary reports them without forcing training).
    pub fn stage_timings(&self) -> Option<evax_core::pipeline::StageTimings> {
        self.pipeline.get().map(|p| p.timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse() {
        assert_eq!(
            ExperimentScale::parse("small"),
            Some(ExperimentScale::Small)
        );
        assert_eq!(ExperimentScale::parse("full"), Some(ExperimentScale::Full));
        assert_eq!(ExperimentScale::parse("huge"), None);
    }

    #[test]
    fn thread_budget_reaches_collect_and_kfold_configs() {
        let h = Harness::new(7, ExperimentScale::Small, Parallelism::Fixed(1));
        assert_eq!(h.evax_config().collect.parallelism, Parallelism::Fixed(1));
        let kfold = h.kfold_config();
        assert_eq!(kfold.parallelism, Parallelism::Fixed(1));
        assert_eq!(kfold.collect.parallelism, Parallelism::Fixed(1));
    }

    #[test]
    fn full_is_larger_than_small() {
        let s = ExperimentScale::Small.evax_config();
        let f = ExperimentScale::Full.evax_config();
        assert!(f.collect.runs_per_attack > s.collect.runs_per_attack);
        assert!(f.gan.epochs > s.gan.epochs);
        assert!(ExperimentScale::Full.perf_instrs() > ExperimentScale::Small.perf_instrs());
    }

    /// Every preset the repo ships passes the check its consumer runs, so
    /// no shipped entry point panics on its own defaults.
    #[test]
    fn every_shipped_config_validates() {
        for cfg in [
            EvaxConfig::default(),
            EvaxConfig::small(),
            ExperimentScale::Small.evax_config(),
            ExperimentScale::Full.evax_config(),
        ] {
            cfg.validate().unwrap();
        }
        KfoldConfig::default().collect.validate().unwrap();
        evax_defense::fleet::FleetConfig::default()
            .adaptive
            .validate()
            .unwrap();
        let energy = evax_sim::SensorConfig {
            energy: true,
            ..Default::default()
        };
        energy.validate().unwrap();
        for kind in evax_attacks::CARRIER_KINDS {
            kind.device_config()
                .validate()
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }
}
