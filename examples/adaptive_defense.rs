//! The headline result: detector-gated mitigation cuts the overhead of
//! always-on defenses by an order of magnitude while still stopping the
//! attack (paper Figs. 14/16).
//!
//! ```text
//! cargo run --release --example adaptive_defense
//! ```

use evax::attacks::{build_attack, AttackClass, KernelParams};
use evax::core::prelude::{EvaxConfig, EvaxPipeline};
use evax::defense::adaptive::{run_adaptive, AdaptiveConfig, Policy};
use evax::defense::overhead::measure_workload;
use evax::obs::MetricsSink;
use evax::sim::CpuConfig;
use rand::SeedableRng;

fn main() {
    println!("training EVAX pipeline...");
    let pipeline = EvaxPipeline::run(&EvaxConfig::small(), 42);
    let featurizer = pipeline.featurizer();

    // ---- Performance: benign workload under three regimes ----
    println!("\nbenign workload (compression), Fence-Futuristic policy:");
    let row = measure_workload(
        &featurizer,
        &pipeline.evax,
        pipeline.sample_interval,
        evax::attacks::BenignKind::Compression,
        Policy::FenceFuturistic,
        60_000,
        50_000,
        7,
    );
    println!("  baseline            : {} cycles", row.baseline_cycles);
    println!(
        "  always-on mitigation: {} cycles  (+{:.1}%)",
        row.always_on_cycles,
        row.always_on_overhead * 100.0
    );
    println!(
        "  EVAX-adaptive       : {} cycles  (+{:.2}%), {} false flags",
        row.adaptive_cycles,
        row.adaptive_overhead * 100.0,
        row.false_flags
    );
    println!("  overhead eliminated : {:.1}%", row.reduction() * 100.0);

    // ---- Security: the same adaptive architecture under attack ----
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let attack = build_attack(
        AttackClass::SpectrePht,
        &KernelParams {
            iterations: 200,
            ..Default::default()
        },
        &mut rng,
    );
    let cfg = AdaptiveConfig {
        sample_interval: pipeline.sample_interval,
        secure_window: 10_000,
        policy: Policy::FenceFuturistic,
    };
    let run = run_adaptive(
        &CpuConfig::default(),
        &attack,
        &featurizer,
        &pipeline.evax,
        &cfg,
        100_000,
        &MetricsSink::default(),
    );
    println!("\nspectre-pht under the adaptive architecture:");
    println!("  detector flags      : {}", run.flags);
    println!(
        "  secure-mode coverage: {} of {} instructions",
        run.secure_instructions, run.result.committed_instructions
    );
    println!(
        "  -> mitigation was ON for the attack, OFF for benign execution: \
         security when needed, performance otherwise."
    );
}
