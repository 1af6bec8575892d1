//! Behavioural tests of the adaptive controller's secure-window state
//! machine: arming, extension on repeated flags, expiry, and the IPC cost
//! accounting.

use evax::attacks::benign::Scale;
use evax::attacks::{build_attack, build_benign, AttackClass, BenignKind, KernelParams};
use evax::core::collect::{collect_dataset, CollectConfig};
use evax::core::detector::{Detector, DetectorKind, TrainConfig};
use evax::core::featurize::Featurizer;
use evax::defense::adaptive::{run_adaptive, run_fixed, AdaptiveConfig, Policy};
use evax::obs::MetricsSink;
use evax::sim::{CpuConfig, MitigationMode};
use rand::SeedableRng;

fn small_collect() -> CollectConfig {
    CollectConfig {
        interval: 200,
        runs_per_attack: 1,
        runs_per_benign: 2,
        max_instrs: 4_000,
        benign_scale: 4_000,
        ..Default::default()
    }
}

fn trained(seed: u64) -> (Detector, Featurizer) {
    let (ds, norm) = collect_dataset(&small_collect(), seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut det = Detector::train(
        DetectorKind::Evax,
        &ds,
        vec![],
        &TrainConfig::default(),
        &mut rng,
    );
    det.tune_for_class_coverage(&ds, 0.5);
    (det, Featurizer::baseline(norm))
}

#[test]
fn secure_window_extends_while_attack_continues() {
    let (det, feat) = trained(21);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    // A long-running attack: every window flags, so secure mode must cover
    // nearly the whole run even though each grant is short.
    let attack = build_attack(
        AttackClass::FlushReload,
        &KernelParams {
            iterations: 400,
            ..Default::default()
        },
        &mut rng,
    );
    let cfg = AdaptiveConfig {
        sample_interval: 200,
        secure_window: 400, // much shorter than the attack
        policy: Policy::FenceSpectre,
    };
    let run = run_adaptive(
        &CpuConfig::default(),
        &attack,
        &feat,
        &det,
        &cfg,
        30_000,
        &MetricsSink::default(),
    );
    assert!(
        run.flags > 10,
        "continuous attack keeps re-flagging: {}",
        run.flags
    );
    assert!(
        run.secure_instructions as f64 > run.result.committed_instructions as f64 * 0.8,
        "secure mode must track the attack: {}/{}",
        run.secure_instructions,
        run.result.committed_instructions
    );
}

#[test]
fn secure_window_expires_after_attack_phase() {
    let (det, feat) = trained(22);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    // Short attack phase followed by a long benign phase in one composite
    // program: concatenate attack instructions then benign instructions.
    let attack = build_attack(
        AttackClass::SpectrePht,
        &KernelParams {
            iterations: 8,
            train_iters: 4,
            ..Default::default()
        },
        &mut rng,
    );
    let benign = build_benign(BenignKind::MatrixAi, Scale(30_000), &mut rng);
    // Splice: run the attack body, then fall through into the benign body.
    let mut ops = attack.instructions().to_vec();
    let attack_len = ops.len();
    ops.pop(); // drop the attack's halt
    let offset = ops.len();
    for op in benign.instructions() {
        use evax::sim::isa::Op;
        let shifted = match *op {
            Op::Branch { cond, a, b, target } => Op::Branch {
                cond,
                a,
                b,
                target: target + offset,
            },
            Op::Jmp { target } => Op::Jmp {
                target: target + offset,
            },
            Op::Call { target } => Op::Call {
                target: target + offset,
            },
            other => other,
        };
        ops.push(shifted);
    }
    let program = evax::sim::Program::from_instructions("attack-then-benign", ops);
    let cfg = AdaptiveConfig {
        sample_interval: 200,
        secure_window: 1_000,
        policy: Policy::FenceFuturistic,
    };
    let run = run_adaptive(
        &CpuConfig::default(),
        &program,
        &feat,
        &det,
        &cfg,
        40_000,
        &MetricsSink::default(),
    );
    assert!(run.flags > 0, "attack phase must flag (len {attack_len})");
    // The benign tail dominates, so secure coverage must be well under half.
    assert!(
        (run.secure_instructions as f64) < run.result.committed_instructions as f64 * 0.5,
        "secure mode must expire in the benign phase: {}/{}",
        run.secure_instructions,
        run.result.committed_instructions
    );
}

#[test]
fn fixed_mode_accounting_matches_mode() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let w = build_benign(BenignKind::GeneDp, Scale(6_000), &mut rng);
    let none = run_fixed(&CpuConfig::default(), &w, MitigationMode::None, 500, 20_000);
    assert_eq!(none.secure_instructions, 0);
    assert_eq!(none.flags, 0);
    let fenced = run_fixed(
        &CpuConfig::default(),
        &w,
        MitigationMode::FenceFuturistic,
        500,
        20_000,
    );
    assert_eq!(
        fenced.secure_instructions,
        fenced.result.committed_instructions
    );
}

#[test]
fn adaptive_never_slower_than_always_on_for_benign_work() {
    let (det, feat) = trained(23);
    for kind in [
        BenignKind::Compression,
        BenignKind::Scheduler,
        BenignKind::GeneDp,
    ] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let w = build_benign(kind, Scale(15_000), &mut rng);
        let always = run_fixed(
            &CpuConfig::default(),
            &w,
            MitigationMode::FenceFuturistic,
            200,
            30_000,
        );
        let cfg = AdaptiveConfig {
            sample_interval: 200,
            secure_window: 2_000,
            policy: Policy::FenceFuturistic,
        };
        let adaptive = run_adaptive(
            &CpuConfig::default(),
            &w,
            &feat,
            &det,
            &cfg,
            30_000,
            &MetricsSink::default(),
        );
        // False positives can buy short secure windows, so allow a small
        // slack; the invariant is "adaptive is never meaningfully slower".
        assert!(
            adaptive.result.cycles as f64 <= always.result.cycles as f64 * 1.05,
            "{kind}: adaptive {} >> always-on {}",
            adaptive.result.cycles,
            always.result.cycles
        );
    }
}
