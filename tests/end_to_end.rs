//! Cross-crate integration: the full EVAX loop — simulate, collect, train,
//! detect, defend — exercised through the public facade API.

use evax::attacks::benign::Scale;
use evax::attacks::{build_attack, build_benign, AttackClass, BenignKind, KernelParams};
use evax::core::collect::{collect_program, CollectConfig};
use evax::core::pipeline::{EvaxConfig, EvaxPipeline};
use evax::defense::adaptive::{run_adaptive, AdaptiveConfig, Policy};
use evax::obs::MetricsSink;
use evax::sim::CpuConfig;
use rand::SeedableRng;

fn tiny_config() -> EvaxConfig {
    let mut cfg = EvaxConfig::small();
    cfg.collect = CollectConfig {
        interval: 200,
        runs_per_attack: 1,
        runs_per_benign: 2,
        max_instrs: 5_000,
        benign_scale: 5_000,
        ..Default::default()
    };
    cfg.gan.epochs = 8;
    cfg
}

#[test]
fn pipeline_trains_and_beats_chance_by_far() {
    let pipeline = EvaxPipeline::run(&tiny_config(), 42);
    let report = pipeline.evaluate_holdout();
    assert!(
        report.accuracy > 0.85,
        "holdout accuracy too low: {}",
        report.accuracy
    );
    assert_eq!(
        pipeline.engineered.len(),
        12,
        "Table I has 12 engineered HPCs"
    );
}

#[test]
fn every_attack_class_is_flagged_and_benign_is_not() {
    let pipeline = EvaxPipeline::run(&tiny_config(), 43);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    // Fresh kernels (unseen seeds) of every class must raise at least one
    // flag; the adaptive architecture arms on the first.
    for class in evax::attacks::ATTACK_CLASSES {
        let params = KernelParams {
            seed: 0xABCD_EF00,
            iterations: 150,
            ..Default::default()
        };
        let program = build_attack(class, &params, &mut rng);
        let samples = collect_program(
            &program,
            class.label(),
            &pipeline.config.collect,
            &pipeline.normalizer,
        );
        let flagged = samples
            .iter()
            .filter(|s| pipeline.evax.classify(&s.features))
            .count();
        assert!(
            flagged > 0,
            "{class} raised no flags over {} windows",
            samples.len()
        );
    }
    // Fresh benign programs should raise none (or nearly none).
    let mut false_flags = 0usize;
    let mut windows = 0usize;
    for kind in evax::attacks::BENIGN_KINDS {
        let program = build_benign(kind, Scale(5_000), &mut rng);
        let samples = collect_program(&program, 0, &pipeline.config.collect, &pipeline.normalizer);
        windows += samples.len();
        false_flags += samples
            .iter()
            .filter(|s| pipeline.evax.classify(&s.features))
            .count();
    }
    assert!(
        (false_flags as f64) < windows as f64 * 0.05,
        "too many benign false flags: {false_flags}/{windows}"
    );
}

#[test]
fn adaptive_architecture_defends_and_stays_cheap() {
    let pipeline = EvaxPipeline::run(&tiny_config(), 44);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let cfg = AdaptiveConfig {
        sample_interval: pipeline.sample_interval,
        secure_window: 4_000,
        policy: Policy::InvisiSpecFuturistic,
    };
    // Under attack: flags fire and secure mode covers most of the run.
    let attack = build_attack(
        AttackClass::Meltdown,
        &KernelParams {
            iterations: 200,
            ..Default::default()
        },
        &mut rng,
    );
    let attacked = run_adaptive(
        &CpuConfig::default(),
        &attack,
        &pipeline.featurizer(),
        &pipeline.evax,
        &cfg,
        40_000,
        &MetricsSink::default(),
    );
    assert!(attacked.flags > 0, "attack must be flagged");
    assert!(
        attacked.secure_instructions * 2 > attacked.result.committed_instructions,
        "secure mode should cover the attack: {}/{}",
        attacked.secure_instructions,
        attacked.result.committed_instructions
    );
    // On benign work: secure mode stays (almost) off.
    let workload = build_benign(BenignKind::GeneDp, Scale(20_000), &mut rng);
    let benign = run_adaptive(
        &CpuConfig::default(),
        &workload,
        &pipeline.featurizer(),
        &pipeline.evax,
        &cfg,
        40_000,
        &MetricsSink::default(),
    );
    assert!(
        benign.secure_instructions * 4 < benign.result.committed_instructions.max(1),
        "benign run mostly in performance mode: {}/{}",
        benign.secure_instructions,
        benign.result.committed_instructions
    );
}

#[test]
fn pipeline_is_deterministic_given_seed() {
    let a = EvaxPipeline::run(&tiny_config(), 77);
    let b = EvaxPipeline::run(&tiny_config(), 77);
    assert_eq!(a.train.len(), b.train.len());
    assert_eq!(a.evax.threshold(), b.evax.threshold());
    assert_eq!(
        a.engineered
            .iter()
            .map(|f| f.name.clone())
            .collect::<Vec<_>>(),
        b.engineered
            .iter()
            .map(|f| f.name.clone())
            .collect::<Vec<_>>()
    );
}
