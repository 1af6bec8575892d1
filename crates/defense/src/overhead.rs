//! End-to-end overhead measurement (paper Fig. 16): always-on mitigation
//! vs. the EVAX-gated adaptive architecture, across the benign workload
//! suite. "We only measure performance of benign programs since performance
//! of malicious programs is not a concern."

use evax_attacks::benign::Scale;
use evax_attacks::{build_benign, BenignKind, BENIGN_KINDS};
use evax_core::pipeline::EvaxPipeline;
use evax_core::prelude::{Featurizer, MetricsSink, ModelDetector};
use evax_sim::{CpuConfig, MitigationMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adaptive::{run_adaptive, run_fixed, AdaptiveConfig, Policy};

/// One workload's overhead comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRow {
    /// Workload name.
    pub workload: String,
    /// Baseline (no mitigation) cycles.
    pub baseline_cycles: u64,
    /// Always-on mitigation cycles.
    pub always_on_cycles: u64,
    /// Adaptive (detector-gated) cycles.
    pub adaptive_cycles: u64,
    /// Always-on overhead fraction (e.g. 0.74 = 74%).
    pub always_on_overhead: f64,
    /// Adaptive overhead fraction.
    pub adaptive_overhead: f64,
    /// Detector flags raised on this (benign) workload — false positives.
    pub false_flags: u64,
}

impl OverheadRow {
    /// Fraction of the always-on overhead eliminated by gating
    /// (the paper's "95% reduction").
    pub fn reduction(&self) -> f64 {
        if self.always_on_overhead <= 0.0 {
            return 0.0;
        }
        1.0 - self.adaptive_overhead / self.always_on_overhead
    }
}

/// Measures one workload under baseline / always-on / adaptive, the
/// adaptive run gated by `model` on `featurizer`'s rows (so experiments can
/// compare EVAX- vs PerSpectron-gated adaptive architectures).
#[allow(clippy::too_many_arguments)]
pub fn measure_workload(
    featurizer: &Featurizer,
    model: &dyn ModelDetector,
    sample_interval: u64,
    kind: BenignKind,
    policy: Policy,
    max_instrs: u64,
    scale: u64,
    seed: u64,
) -> OverheadRow {
    let cpu_cfg = CpuConfig::default();
    let adaptive_cfg = AdaptiveConfig {
        sample_interval,
        secure_window: (sample_interval * 100)
            .min(max_instrs / 4)
            .max(sample_interval),
        policy,
    };
    // Identical programs per mode: same generator seed.
    let program = |s: u64| {
        let mut rng = StdRng::seed_from_u64(s);
        build_benign(kind, Scale(scale), &mut rng)
    };
    let base = run_fixed(
        &cpu_cfg,
        &program(seed),
        MitigationMode::None,
        sample_interval,
        max_instrs,
    );
    let always = run_fixed(
        &cpu_cfg,
        &program(seed),
        policy.mode(),
        sample_interval,
        max_instrs,
    );
    let adaptive = run_adaptive(
        &cpu_cfg,
        &program(seed),
        featurizer,
        model,
        &adaptive_cfg,
        max_instrs,
        &MetricsSink::default(),
    );
    let overhead = |c: u64| c as f64 / base.result.cycles.max(1) as f64 - 1.0;
    OverheadRow {
        workload: kind.name().to_string(),
        baseline_cycles: base.result.cycles,
        always_on_cycles: always.result.cycles,
        adaptive_cycles: adaptive.result.cycles,
        always_on_overhead: overhead(always.result.cycles),
        adaptive_overhead: overhead(adaptive.result.cycles),
        false_flags: adaptive.flags,
    }
}

/// The full Fig. 16 sweep: every benign workload under one policy, gated
/// by the pipeline's EVAX detector.
pub fn overhead_suite(pipeline: &EvaxPipeline, policy: Policy, seed: u64) -> Vec<OverheadRow> {
    let featurizer = pipeline.featurizer();
    BENIGN_KINDS
        .iter()
        .map(|&kind| {
            measure_workload(
                &featurizer,
                &pipeline.evax,
                pipeline.sample_interval,
                kind,
                policy,
                60_000,
                50_000,
                seed,
            )
        })
        .collect()
}

/// Geometric-mean overheads over a suite: `(always_on, adaptive)`.
pub fn summarize(rows: &[OverheadRow]) -> (f64, f64) {
    if rows.is_empty() {
        return (0.0, 0.0);
    }
    let geo = |f: &dyn Fn(&OverheadRow) -> f64| {
        let ln_sum: f64 = rows.iter().map(|r| (1.0 + f(r).max(0.0)).ln()).sum();
        (ln_sum / rows.len() as f64).exp() - 1.0
    };
    (
        geo(&|r| r.always_on_overhead),
        geo(&|r| r.adaptive_overhead),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_math() {
        let row = OverheadRow {
            workload: "x".into(),
            baseline_cycles: 100,
            always_on_cycles: 174,
            adaptive_cycles: 103,
            always_on_overhead: 0.74,
            adaptive_overhead: 0.03,
            false_flags: 1,
        };
        assert!((row.reduction() - (1.0 - 0.03 / 0.74)).abs() < 1e-12);
    }

    #[test]
    fn summarize_geomean() {
        let rows = vec![
            OverheadRow {
                workload: "a".into(),
                baseline_cycles: 100,
                always_on_cycles: 150,
                adaptive_cycles: 102,
                always_on_overhead: 0.5,
                adaptive_overhead: 0.02,
                false_flags: 0,
            },
            OverheadRow {
                workload: "b".into(),
                baseline_cycles: 100,
                always_on_cycles: 200,
                adaptive_cycles: 105,
                always_on_overhead: 1.0,
                adaptive_overhead: 0.05,
                false_flags: 0,
            },
        ];
        let (always, adaptive) = summarize(&rows);
        assert!(always > 0.5 && always < 1.0);
        assert!(adaptive > 0.02 && adaptive < 0.05);
    }

    #[test]
    fn empty_suite_summarizes_to_zero() {
        assert_eq!(summarize(&[]), (0.0, 0.0));
    }
}
