//! The metered defense pass behind `obs_report`: train a quick detector,
//! then run each program of a slice under baseline / always-on / adaptive
//! mitigation with a recording [`MetricsSink`], producing the registry the
//! Fig. 14/16-style observability tables are rendered from.
//!
//! Everything recorded here is a simulated quantity (cycles, instructions,
//! windows, flags), so the registry's deterministic JSON is byte-identical
//! at any thread count and any host speed — only the `TimerNs` wall-clock
//! spans differ between machines, and those are excluded from the
//! deterministic export.

use std::sync::Arc;

use evax_attacks::benign::Scale;
use evax_attacks::{build_attack, build_benign, AttackClass, BenignKind, KernelParams};
use evax_core::collect::collect_dataset_stats_with;
use evax_core::detector::TrainConfig;
use evax_core::prelude::{
    CollectConfig, Detector, DetectorKind, Featurizer, MetricsSink, Parallelism, Registry,
};
use evax_defense::adaptive::{run_adaptive, run_fixed, AdaptiveConfig, Policy};
use evax_sim::{CpuConfig, MitigationMode, Program};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Instruction budget per metered run.
const RUN_INSTRS: u64 = 6_000;
/// HPC sampling interval for the metered runs.
const SAMPLE_INTERVAL: u64 = 200;

/// One program slot in the metered pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsProgram {
    /// An attack kernel (detection latency and duty cycle are reported).
    Attack(AttackClass),
    /// A benign workload (false flags and overhead are reported).
    Benign(BenignKind),
}

impl ObsProgram {
    /// Metric-name label: lowercase, `-` → `_`, unique per slice entry.
    pub fn label(&self) -> String {
        let raw = match self {
            ObsProgram::Attack(c) => c.name(),
            ObsProgram::Benign(k) => k.name(),
        };
        raw.to_ascii_lowercase().replace(['-', ' ', '.'], "_")
    }

    /// Whether this slot is an attack kernel.
    pub fn is_attack(&self) -> bool {
        matches!(self, ObsProgram::Attack(_))
    }

    fn build(&self, seed: u64) -> Program {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            ObsProgram::Attack(c) => build_attack(*c, &KernelParams::default(), &mut rng),
            ObsProgram::Benign(k) => build_benign(*k, Scale(RUN_INSTRS), &mut rng),
        }
    }
}

/// The 2-program slice CI smokes: one attack, one benign workload.
pub fn smoke_programs() -> Vec<ObsProgram> {
    vec![
        ObsProgram::Attack(AttackClass::SpectrePht),
        ObsProgram::Benign(BenignKind::Compression),
    ]
}

/// The default slice: three attack classes, two benign workloads.
pub fn default_programs() -> Vec<ObsProgram> {
    vec![
        ObsProgram::Attack(AttackClass::SpectrePht),
        ObsProgram::Attack(AttackClass::Meltdown),
        ObsProgram::Attack(AttackClass::FlushReload),
        ObsProgram::Benign(BenignKind::Compression),
        ObsProgram::Benign(BenignKind::MatrixAi),
    ]
}

/// Runs the metered pass: collects a tiny corpus (itself metered), trains a
/// quick detector on it, then drives every program in `programs` through
/// baseline (`fixed.<label>.baseline.*`), always-on
/// (`fixed.<label>.always_on.*`) and detector-gated adaptive
/// (`adaptive.<label>.*`) execution, all recording into one registry.
///
/// The returned registry's deterministic export is byte-identical at any
/// `parallelism` (the collect fan-out is the only parallel stage; its
/// per-item registries merge in canonical order).
pub fn obs_pass(seed: u64, parallelism: Parallelism, programs: &[ObsProgram]) -> Arc<Registry> {
    let registry = Registry::shared();
    let metrics = MetricsSink::recording(&registry);

    // A deliberately tiny corpus: the pass is about metering the defense
    // loop, not detector quality. No GAN, no engineered features.
    let collect_cfg = CollectConfig {
        interval: SAMPLE_INTERVAL,
        runs_per_attack: 1,
        runs_per_benign: 1,
        max_instrs: 3_000,
        benign_scale: 3_000,
        parallelism,
        ..Default::default()
    };
    let (dataset, stats) = collect_dataset_stats_with(&collect_cfg, seed, &metrics);
    let featurizer = Featurizer::baseline(stats.normalizer());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0b5_9a55);
    let detector = Detector::train(
        DetectorKind::Evax,
        &dataset,
        Vec::new(),
        &TrainConfig::default(),
        &mut rng,
    );

    let cpu_cfg = CpuConfig::default();
    let adaptive_cfg = AdaptiveConfig {
        sample_interval: SAMPLE_INTERVAL,
        secure_window: 2_000,
        policy: Policy::FenceSpectre,
    };

    for (i, prog) in programs.iter().enumerate() {
        let label = prog.label();
        let program = prog.build(seed ^ ((i as u64 + 1) << 32));
        run_fixed(
            &cpu_cfg,
            &program,
            MitigationMode::None,
            SAMPLE_INTERVAL,
            RUN_INSTRS,
        )
        .record_fixed(&metrics, &format!("{label}.baseline"));
        run_fixed(
            &cpu_cfg,
            &program,
            adaptive_cfg.policy.mode(),
            SAMPLE_INTERVAL,
            RUN_INSTRS,
        )
        .record_fixed(&metrics, &format!("{label}.always_on"));
        run_adaptive(
            &cpu_cfg,
            &program,
            &featurizer,
            &detector,
            &adaptive_cfg,
            RUN_INSTRS,
            &metrics,
        )
        .record_adaptive(&metrics, &label, prog.is_attack());
    }
    metrics.add("obs.programs", programs.len() as u64);
    registry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_pass_records_defense_metrics() {
        let reg = obs_pass(7, Parallelism::Fixed(1), &smoke_programs());
        assert_eq!(reg.get("obs.programs"), Some(2));
        assert!(reg.get("collect.runs").unwrap_or(0) > 0);
        let attack = ObsProgram::Attack(AttackClass::SpectrePht).label();
        for metric in ["runs", "cycles", "committed_instructions"] {
            assert!(
                reg.get(&format!("fixed.{attack}.baseline.{metric}"))
                    .is_some(),
                "missing fixed.{attack}.baseline.{metric}"
            );
        }
        assert_eq!(reg.get(&format!("adaptive.{attack}.runs")), Some(1));
    }

    #[test]
    fn pass_is_thread_count_invariant() {
        let a = obs_pass(11, Parallelism::Fixed(1), &smoke_programs());
        let b = obs_pass(11, Parallelism::Fixed(4), &smoke_programs());
        assert_eq!(a.to_json(), b.to_json());
    }
}
