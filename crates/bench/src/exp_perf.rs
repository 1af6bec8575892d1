//! Figs. 14–16: the performance side — IPC timelines, FP/FN rates, and
//! end-to-end overhead of the adaptive architecture.

use evax_attacks::benign::Scale;
use evax_attacks::{build_benign, BenignKind};
use evax_core::metrics::Confusion;
use evax_core::prelude::{CollectConfig, EvaxConfig, EvaxPipeline, Featurizer, MetricsSink};
use evax_defense::adaptive::{run_adaptive, run_fixed, AdaptiveConfig, Policy};
use evax_defense::overhead::{measure_workload, summarize, OverheadRow};
use evax_sim::{CpuConfig, MitigationMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::Harness;

fn sparkline(xs: &[f64], max: f64) -> String {
    let blocks = [' ', '.', ':', '-', '=', '+', '*', '#'];
    xs.iter()
        .map(|&v| {
            blocks[((v / max.max(1e-9)).min(1.0) * (blocks.len() - 1) as f64).round() as usize]
        })
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Fig. 14: IPC timeline of the adaptive architecture vs. PerSpectron-gated
/// and always-on InvisiSpec, on a benign stream with an attack phase spliced
/// into the middle (the paper's mixed-timeline scenario).
pub fn fig14(h: &Harness) -> String {
    let p = h.pipeline();
    let cpu_cfg = CpuConfig::default();
    let max_instrs = h.scale.perf_instrs();
    let interval = p.sample_interval * 5;
    let mut rng = StdRng::seed_from_u64(h.seed ^ 0x14);
    let before = build_benign(BenignKind::Compression, Scale(max_instrs * 2 / 5), &mut rng);
    let attack = evax_attacks::build_attack(
        evax_attacks::AttackClass::SpectrePht,
        &evax_attacks::KernelParams {
            iterations: (max_instrs / 2_000) as u32,
            ..Default::default()
        },
        &mut rng,
    );
    let after = build_benign(BenignKind::Scheduler, Scale(max_instrs * 2 / 5), &mut rng);
    let workload =
        evax_attacks::compose::compose(&[before, attack, after]).expect("timeline composes");

    let baseline = run_fixed(
        &cpu_cfg,
        &workload,
        MitigationMode::None,
        interval,
        max_instrs,
    );
    let invisi = run_fixed(
        &cpu_cfg,
        &workload,
        MitigationMode::InvisiSpecFuturistic,
        interval,
        max_instrs,
    );
    let a_cfg = |policy| AdaptiveConfig {
        sample_interval: interval,
        secure_window: interval * 20,
        policy,
    };
    let evax_feat = p.featurizer();
    let persp_feat = Featurizer::baseline(p.normalizer.clone());
    let no_metrics = MetricsSink::default();
    let evax_spectre = run_adaptive(
        &cpu_cfg,
        &workload,
        &evax_feat,
        &p.evax,
        &a_cfg(Policy::FenceSpectre),
        max_instrs,
        &no_metrics,
    );
    let evax_futuristic = run_adaptive(
        &cpu_cfg,
        &workload,
        &evax_feat,
        &p.evax,
        &a_cfg(Policy::FenceFuturistic),
        max_instrs,
        &no_metrics,
    );
    let perspectron = run_adaptive(
        &cpu_cfg,
        &workload,
        &persp_feat,
        &p.perspectron,
        &a_cfg(Policy::FenceSpectre),
        max_instrs,
        &no_metrics,
    );

    let series: Vec<(&str, Vec<f64>)> = vec![
        (
            "baseline (no mitigation)",
            baseline.ipc_series.iter().map(|&(_, i)| i).collect(),
        ),
        (
            "InvisiSpec always-on",
            invisi.ipc_series.iter().map(|&(_, i)| i).collect(),
        ),
        (
            "PerSpectron-adaptive",
            perspectron.ipc_series.iter().map(|&(_, i)| i).collect(),
        ),
        (
            "EVAX-SpectreSafe",
            evax_spectre.ipc_series.iter().map(|&(_, i)| i).collect(),
        ),
        (
            "EVAX-FuturisticSafeFence",
            evax_futuristic.ipc_series.iter().map(|&(_, i)| i).collect(),
        ),
    ];
    let max = series
        .iter()
        .flat_map(|(_, xs)| xs.iter().copied())
        .fold(0.0f64, f64::max);
    let mut out =
        String::from("== Fig. 14: IPC timeline under adaptive policies (benign region) ==\n");
    for (name, xs) in &series {
        out.push_str(&format!(
            "{name:>26} | {} | mean IPC {:.3}\n",
            sparkline(xs, max),
            mean(xs)
        ));
    }
    out.push_str(&format!(
        "\nTimeline: benign | spectre-pht attack | benign. Flags raised:\n\
         PerSpectron={} EVAX={} (secure-mode coverage EVAX: {}/{} instructions)\n",
        perspectron.flags,
        evax_spectre.flags,
        evax_spectre.secure_instructions,
        evax_spectre.result.committed_instructions
    ));
    let base_ipc = mean(&series[0].1);
    let evax_ipc = mean(&series[3].1);
    let invisi_ipc = mean(&series[1].1);
    out.push_str(&format!(
        "Paper shape: EVAX keeps IPC near baseline in benign regions (dipping only\n\
         while secure mode covers the attack); always-on InvisiSpec lowest\n\
         throughout. Measured mean IPC ratios: EVAX/baseline = {:.3},\n\
         InvisiSpec/baseline = {:.3}; attack flagged: {} ({})\n",
        evax_ipc / base_ipc.max(1e-9),
        invisi_ipc / base_ipc.max(1e-9),
        evax_spectre.flags > 0,
        if evax_ipc > invisi_ipc && evax_spectre.flags > 0 {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    ));
    out
}

/// Fig. 15: FP/FN distribution per sampling granularity.
pub fn fig15(h: &Harness) -> String {
    let mut out = String::from("== Fig. 15: false positives / negatives per 10k instructions ==\n");
    out.push_str("interval | detector    | FP/10k    | FN/10k    | accuracy\n");
    let base_cfg = h.evax_config();
    for &interval in &[100u64, 1_000, 10_000] {
        let cfg = EvaxConfig {
            collect: CollectConfig {
                interval,
                // Longer runs for coarse intervals so each run yields windows.
                max_instrs: base_cfg.collect.max_instrs.max(interval * 12),
                benign_scale: base_cfg.collect.benign_scale.max(interval * 12),
                ..base_cfg.collect.clone()
            },
            ..base_cfg.clone()
        };
        let p = EvaxPipeline::run(&cfg, h.seed ^ interval);
        for (name, det) in [("EVAX", &p.evax), ("PerSpectron", &p.perspectron)] {
            let c = Confusion::evaluate(det, &p.holdout, h.parallelism);
            out.push_str(&format!(
                "{:>8} | {:<11} | {:>9.4} | {:>9.4} | {:.3}\n",
                interval,
                name,
                c.fp_per_instructions(interval, 10_000),
                c.fn_per_instructions(interval, 10_000),
                c.accuracy()
            ));
        }
    }
    out.push_str(
        "\nPaper shape: EVAX ~85% fewer FPs and ~72% fewer FNs than PerSpectron;\n\
         FP rate falls with finer sampling (0.0005 FP/10k at 100-instr sampling,\n\
         0.034 FP/10k at 10k-instr sampling).\n",
    );
    out
}

/// Fig. 16: end-to-end defense performance comparison.
pub fn fig16(h: &Harness) -> String {
    let p = h.pipeline();
    let max_instrs = h.scale.perf_instrs();
    let scale = max_instrs;
    let mut out =
        String::from("== Fig. 16: end-to-end defense overhead (geomean over workloads) ==\n");
    out.push_str(
        "policy                  | always-on | EVAX-adaptive | PerSpectron-adaptive | reduction\n",
    );
    let paper: &[(&str, f64, f64)] = &[
        ("Fence-Spectre", 0.74, 0.0346),
        ("InvisiSpec-Spectre", 0.27, 0.0126),
        ("Fence-Futuristic", 2.09, 0.10),
        ("InvisiSpec-Futuristic", 0.75, 0.04),
    ];
    let evax_feat = p.featurizer();
    let persp_feat = Featurizer::baseline(p.normalizer.clone());
    let mut reproduced = 0;
    for &policy in &[
        Policy::FenceSpectre,
        Policy::InvisiSpecSpectre,
        Policy::FenceFuturistic,
        Policy::InvisiSpecFuturistic,
    ] {
        let kinds = [
            BenignKind::Compression,
            BenignKind::MatrixAi,
            BenignKind::Scheduler,
            BenignKind::GeneDp,
        ];
        let evax_rows: Vec<OverheadRow> = kinds
            .iter()
            .map(|&k| {
                measure_workload(
                    &evax_feat,
                    &p.evax,
                    p.sample_interval,
                    k,
                    policy,
                    max_instrs,
                    scale,
                    h.seed ^ 0x16,
                )
            })
            .collect();
        let persp_rows: Vec<OverheadRow> = kinds
            .iter()
            .map(|&k| {
                measure_workload(
                    &persp_feat,
                    &p.perspectron,
                    p.sample_interval,
                    k,
                    policy,
                    max_instrs,
                    scale,
                    h.seed ^ 0x16,
                )
            })
            .collect();
        let (always, evax_adaptive) = summarize(&evax_rows);
        let (_, persp_adaptive) = summarize(&persp_rows);
        let reduction = if always > 0.0 {
            1.0 - evax_adaptive / always
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<23} | {:>8.1}% | {:>12.2}% | {:>19.2}% | {:>6.1}%\n",
            policy.name(),
            always * 100.0,
            evax_adaptive * 100.0,
            persp_adaptive * 100.0,
            reduction * 100.0
        ));
        if reduction > 0.5 && evax_adaptive <= persp_adaptive + 1e-9 {
            reproduced += 1;
        }
    }
    out.push_str("\nPaper reference (always-on -> EVAX-adaptive):\n");
    for (name, a, e) in paper {
        out.push_str(&format!(
            "  {:<23} {:>5.0}% -> {:>5.2}%  ({:.0}% reduction)\n",
            name,
            a * 100.0,
            e * 100.0,
            (1.0 - e / a) * 100.0
        ));
    }
    out.push_str(&format!(
        "\nShape check (>=50% reduction and EVAX <= PerSpectron overhead on every policy): {}/4 {}\n",
        reproduced,
        if reproduced >= 3 { "REPRODUCED" } else { "PARTIAL" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_handles_flat_series() {
        let s = sparkline(&[1.0, 1.0], 1.0);
        assert_eq!(s.len(), 2);
    }
}
