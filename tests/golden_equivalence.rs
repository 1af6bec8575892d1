//! Golden equivalence of the two scheduling cores.
//!
//! The event-driven scheduler (`SchedulerKind::EventDriven`, the default)
//! must be **bit-identical** to the reference scan scheduler
//! (`SchedulerKind::Scan`) — same `PipelineStats`, same HPC sample vectors
//! bit for bit, same committed architectural state — on every attack and
//! benign program in the registry, under every mitigation mode, and across
//! mid-run adaptive mode switches. Debug builds additionally cross-check the
//! event scheduler's incremental state against full scans every cycle via
//! `debug_assert!`s inside the core.

use evax::attacks::benign::Scale;
use evax::attacks::{
    build_attack, build_benign, AttackClass, BenignKind, KernelParams, ATTACK_CLASSES, BENIGN_KINDS,
};
use evax::sim::isa::Program;
use evax::sim::{CpuConfig, HpcSample, MitigationMode, PipelineStats, SchedulerKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SAMPLE_INTERVAL: u64 = 500;

/// One full observable outcome of a run: every pipeline counter, every HPC
/// sampling window, and the committed architectural state.
struct Outcome {
    stats: PipelineStats,
    samples: Vec<HpcSample>,
    regs: [u64; 32],
    committed: u64,
    cycles: u64,
    halted: bool,
}

fn run_outcome(
    program: &Program,
    scheduler: SchedulerKind,
    mitigation: MitigationMode,
    max_instrs: u64,
    on_sample: impl FnMut(usize, &HpcSample) -> Option<MitigationMode>,
) -> Outcome {
    let cfg = CpuConfig {
        scheduler,
        mitigation,
        ..Default::default()
    };
    run_outcome_cfg(program, cfg, max_instrs, on_sample)
}

fn run_outcome_cfg(
    program: &Program,
    cfg: CpuConfig,
    max_instrs: u64,
    mut on_sample: impl FnMut(usize, &HpcSample) -> Option<MitigationMode>,
) -> Outcome {
    let mut cpu = evax::attacks::tenant_core(&cfg);
    let mut samples = Vec::new();
    let result = cpu.run_sampled(program, max_instrs, SAMPLE_INTERVAL, |s| {
        let switch = on_sample(samples.len(), &s);
        samples.push(s);
        switch
    });
    Outcome {
        stats: cpu.stats().clone(),
        samples,
        regs: result.regs,
        committed: result.committed_instructions,
        cycles: result.cycles,
        halted: result.halted,
    }
}

/// Asserts two outcomes are bitwise identical (floats compared by bits).
fn assert_identical(label: &str, a: &Outcome, b: &Outcome) {
    assert_eq!(a.stats, b.stats, "[{label}] PipelineStats diverged");
    assert_eq!(a.regs, b.regs, "[{label}] architectural registers diverged");
    assert_eq!(
        a.committed, b.committed,
        "[{label}] committed count diverged"
    );
    assert_eq!(a.cycles, b.cycles, "[{label}] cycle count diverged");
    assert_eq!(a.halted, b.halted, "[{label}] halt status diverged");
    assert_eq!(
        a.samples.len(),
        b.samples.len(),
        "[{label}] sample count diverged"
    );
    for (w, (sa, sb)) in a.samples.iter().zip(&b.samples).enumerate() {
        assert_eq!(
            sa.instructions, sb.instructions,
            "[{label}] window {w} instruction mark diverged"
        );
        assert_eq!(sa.cycle, sb.cycle, "[{label}] window {w} cycle diverged");
        assert_eq!(
            sa.values.len(),
            sb.values.len(),
            "[{label}] window {w} dimension diverged"
        );
        for (i, (va, vb)) in sa.values.iter().zip(&sb.values).enumerate() {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "[{label}] window {w} HPC {i} diverged: {va} vs {vb}"
            );
        }
    }
}

fn attack_program(class: AttackClass, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = KernelParams {
        iterations: 24,
        ..Default::default()
    };
    build_attack(class, &params, &mut rng)
}

fn benign_program(kind: BenignKind, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    build_benign(kind, Scale(3_000), &mut rng)
}

/// The acceptance criterion: every registry program, both schedulers,
/// bitwise-identical outcomes.
#[test]
fn every_registry_program_is_bit_identical_across_schedulers() {
    for class in ATTACK_CLASSES {
        let program = attack_program(class, 0xE0AF + class as u64);
        let scan = run_outcome(
            &program,
            SchedulerKind::Scan,
            MitigationMode::None,
            120_000,
            |_, _| None,
        );
        let event = run_outcome(
            &program,
            SchedulerKind::EventDriven,
            MitigationMode::None,
            120_000,
            |_, _| None,
        );
        assert_identical(&format!("attack {class}"), &scan, &event);
    }
    for kind in BENIGN_KINDS {
        let program = benign_program(kind, 0xBE9 + kind as u64);
        let scan = run_outcome(
            &program,
            SchedulerKind::Scan,
            MitigationMode::None,
            120_000,
            |_, _| None,
        );
        let event = run_outcome(
            &program,
            SchedulerKind::EventDriven,
            MitigationMode::None,
            120_000,
            |_, _| None,
        );
        assert_identical(&format!("benign {kind}"), &scan, &event);
    }
}

/// Mitigation gating (fencing and InvisiSpec exposure both interact with
/// scheduling: issue gating, and the only Done→Executing regression).
#[test]
fn mitigation_modes_are_bit_identical_across_schedulers() {
    let classes = [
        AttackClass::SpectrePht,
        AttackClass::Meltdown,
        AttackClass::Lvi,
        AttackClass::Fallout,
    ];
    let modes = [
        MitigationMode::None,
        MitigationMode::FenceSpectre,
        MitigationMode::FenceFuturistic,
        MitigationMode::InvisiSpecSpectre,
        MitigationMode::InvisiSpecFuturistic,
    ];
    for class in classes {
        let program = attack_program(class, 0x517E + class as u64);
        for mode in modes {
            let scan = run_outcome(&program, SchedulerKind::Scan, mode, 120_000, |_, _| None);
            let event = run_outcome(
                &program,
                SchedulerKind::EventDriven,
                mode,
                120_000,
                |_, _| None,
            );
            assert_identical(&format!("{class} under {mode:?}"), &scan, &event);
        }
    }
}

/// Mid-run adaptive mode switches (the controller's lever) must also be
/// schedule-independent.
#[test]
fn adaptive_mode_switching_is_bit_identical_across_schedulers() {
    let rotation = [
        MitigationMode::FenceSpectre,
        MitigationMode::InvisiSpecFuturistic,
        MitigationMode::None,
        MitigationMode::FenceFuturistic,
        MitigationMode::InvisiSpecSpectre,
    ];
    let switcher =
        |w: usize, _s: &HpcSample| -> Option<MitigationMode> { Some(rotation[w % rotation.len()]) };
    for (label, program) in [
        (
            "spectre_pht",
            attack_program(AttackClass::SpectrePht, 0xADA),
        ),
        ("lvi", attack_program(AttackClass::Lvi, 0xADA)),
        (
            "compression",
            benign_program(BenignKind::Compression, 0xADA),
        ),
    ] {
        let scan = run_outcome(
            &program,
            SchedulerKind::Scan,
            MitigationMode::None,
            60_000,
            switcher,
        );
        let event = run_outcome(
            &program,
            SchedulerKind::EventDriven,
            MitigationMode::None,
            60_000,
            switcher,
        );
        assert_identical(&format!("adaptive {label}"), &scan, &event);
    }
}

/// Pipeline-width sweep: scheduler equivalence must hold off the default
/// config too. Widths stress different scheduling regimes — width 1 is a
/// strict in-order-issue-rate machine (maximal structural stalls), width 8
/// saturates the wakeup logic with simultaneous completions — and both
/// schedulers must agree bit for bit in each regime.
#[test]
fn pipeline_width_sweep_is_bit_identical_across_schedulers() {
    let programs = [
        (
            "spectre_pht",
            attack_program(AttackClass::SpectrePht, 0x31D7),
        ),
        (
            "flush_reload",
            attack_program(AttackClass::FlushReload, 0x31D7),
        ),
        ("rowhammer", attack_program(AttackClass::Rowhammer, 0x31D7)),
        (
            "compression",
            benign_program(BenignKind::Compression, 0x31D7),
        ),
    ];
    for width in [1usize, 2, 8] {
        for (label, program) in &programs {
            let with_width = |scheduler| CpuConfig {
                scheduler,
                fetch_width: width,
                issue_width: width,
                commit_width: width,
                ..Default::default()
            };
            let scan = run_outcome_cfg(program, with_width(SchedulerKind::Scan), 60_000, |_, _| {
                None
            });
            let event = run_outcome_cfg(
                program,
                with_width(SchedulerKind::EventDriven),
                60_000,
                |_, _| None,
            );
            assert_identical(&format!("{label} at width {width}"), &scan, &event);
        }
    }
}

/// Slow-gated golden determinism: every registry program run **twice**
/// through `run_sampled` on fresh cores must produce bitwise-identical
/// stats and sample vectors — catches hidden iteration-order or state-reuse
/// nondeterminism in the scheduler (heaps, wakeup lists, seq reuse).
#[test]
fn golden_determinism_run_twice_slow() {
    if std::env::var("EVAX_SLOW_TESTS").is_err() {
        eprintln!("skipping golden_determinism_run_twice_slow; set EVAX_SLOW_TESTS=1");
        return;
    }
    let check = |label: String, program: Program| {
        let first = run_outcome(
            &program,
            SchedulerKind::EventDriven,
            MitigationMode::None,
            120_000,
            |_, _| None,
        );
        let second = run_outcome(
            &program,
            SchedulerKind::EventDriven,
            MitigationMode::None,
            120_000,
            |_, _| None,
        );
        assert_identical(&format!("determinism {label}"), &first, &second);
    };
    for class in ATTACK_CLASSES {
        check(
            format!("{class}"),
            attack_program(class, 0xD373 + class as u64),
        );
    }
    for kind in BENIGN_KINDS {
        check(
            format!("{kind}"),
            benign_program(kind, 0xD373 + kind as u64),
        );
    }
}
