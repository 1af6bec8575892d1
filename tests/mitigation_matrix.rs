//! The security contract of each mitigation mode, checked attack-by-attack:
//! which transient windows each mode closes (paper §VII, Spectre vs.
//! Futuristic threat models).

use evax::attacks::common::layout;
use evax::attacks::{build_attack, AttackClass, KernelParams};
use evax::sim::{CpuConfig, MitigationMode};
use rand::SeedableRng;

/// Runs `class` under `mode`; returns whether the attack's probe footprint
/// appeared in the cache hierarchy.
fn leaks(class: AttackClass, mode: MitigationMode, seed: u64) -> bool {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let params = KernelParams {
        iterations: 24,
        ..Default::default()
    };
    let program = build_attack(class, &params, &mut rng);
    let cfg = CpuConfig {
        mitigation: mode,
        ..Default::default()
    };
    let mut cpu = evax::attacks::tenant_core(&cfg);
    let res = cpu.run(&program, 300_000);
    assert!(res.halted, "{class} under {mode:?} must halt");
    let probe_of = |base: u64, secret: u64| {
        cpu.dcache().contains(base + secret * 64) || cpu.l2().contains(base + secret * 64)
    };
    match class {
        AttackClass::SpectrePht | AttackClass::SpectreRsb => {
            probe_of(layout::PROBE, layout::DEFAULT_SECRET)
        }
        AttackClass::Meltdown => probe_of(layout::PROBE, 5),
        AttackClass::Lvi => probe_of(layout::PROBE, layout::DEFAULT_SECRET ^ 0x1),
        AttackClass::Fallout => probe_of(layout::PROBE2, layout::DEFAULT_SECRET ^ 0x2),
        other => panic!("no leak oracle for {other}"),
    }
}

#[test]
fn unmitigated_core_leaks_everything() {
    for class in [
        AttackClass::SpectrePht,
        AttackClass::SpectreRsb,
        AttackClass::Meltdown,
        AttackClass::Lvi,
        AttackClass::Fallout,
    ] {
        assert!(
            leaks(class, MitigationMode::None, 1),
            "{class} should leak unmitigated"
        );
    }
}

#[test]
fn fence_spectre_closes_branch_shadows_only() {
    // Spectre-model fencing stops branch-shadowed speculation...
    assert!(!leaks(
        AttackClass::SpectrePht,
        MitigationMode::FenceSpectre,
        2
    ));
    // ...but not fault-based windows: Meltdown's transient load is not
    // behind an unresolved branch (the paper's motivation for the
    // Futuristic model).
    assert!(leaks(
        AttackClass::Meltdown,
        MitigationMode::FenceSpectre,
        2
    ));
    assert!(leaks(AttackClass::Lvi, MitigationMode::FenceSpectre, 2));
}

#[test]
fn futuristic_fencing_closes_fault_based_windows() {
    for class in [
        AttackClass::SpectrePht,
        AttackClass::Meltdown,
        AttackClass::Lvi,
        AttackClass::Fallout,
    ] {
        assert!(
            !leaks(class, MitigationMode::FenceFuturistic, 3),
            "{class} must not leak under futuristic fencing"
        );
    }
}

#[test]
fn invisispec_futuristic_hides_all_speculative_footprints() {
    for class in [
        AttackClass::SpectrePht,
        AttackClass::Meltdown,
        AttackClass::Lvi,
    ] {
        assert!(
            !leaks(class, MitigationMode::InvisiSpecFuturistic, 4),
            "{class} must not leak under InvisiSpec-Futuristic"
        );
    }
}

#[test]
fn invisispec_spectre_matches_its_threat_model() {
    assert!(!leaks(
        AttackClass::SpectrePht,
        MitigationMode::InvisiSpecSpectre,
        5
    ));
    // Futuristic-class attacks escape the Spectre-model InvisiSpec.
    assert!(leaks(
        AttackClass::Meltdown,
        MitigationMode::InvisiSpecSpectre,
        5
    ));
}
