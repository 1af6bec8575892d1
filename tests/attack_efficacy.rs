//! Do the attacks actually *work*? For every class with a cache-footprint
//! transmission channel, run the kernel and recover the planted secret the
//! way a real attacker would — by observing which probe line became cached —
//! then check the recovery is unambiguous.

use evax::attacks::common::layout;
use evax::attacks::{build_attack, AttackClass, KernelParams};
use evax::sim::{Cpu, CpuConfig};
use rand::SeedableRng;

/// Runs `class` and recovers the transmitted value from the probe array:
/// returns the set of probe indices whose lines are cached.
fn recover(class: AttackClass, probe_base: u64, params: &KernelParams) -> (Vec<u64>, Cpu) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let program = build_attack(class, params, &mut rng);
    let mut cpu = evax::attacks::tenant_core(&CpuConfig::default());
    let res = cpu.run(&program, 500_000);
    assert!(res.halted, "{class} must halt");
    let cached: Vec<u64> = (0..16)
        .filter(|&v| {
            let addr = probe_base + v * 64;
            cpu.dcache().contains(addr) || cpu.l2().contains(addr)
        })
        .collect();
    (cached, cpu)
}

#[test]
fn spectre_pht_transmits_exactly_the_secret() {
    let params = KernelParams::default();
    let secret = layout::DEFAULT_SECRET ^ (params.seed & 0x7);
    let (cached, _) = recover(AttackClass::SpectrePht, layout::PROBE, &params);
    assert!(cached.contains(&secret), "secret line missing: {cached:?}");
    // The attacker-visible signal must be unambiguous among non-zero lines
    // (index 0 gets incidental traffic from warming/reload loops).
    let signal: Vec<u64> = cached.into_iter().filter(|&v| v != 0).collect();
    assert_eq!(signal, vec![secret], "ambiguous transmission");
}

#[test]
fn spectre_secret_varies_with_kernel_seed() {
    for seed in [0u64, 1, 2, 5] {
        let params = KernelParams {
            seed,
            ..Default::default()
        };
        let secret = layout::DEFAULT_SECRET ^ (seed & 0x7);
        let (cached, _) = recover(AttackClass::SpectrePht, layout::PROBE, &params);
        assert!(
            cached.contains(&secret),
            "seed {seed}: expected line {secret} in {cached:?}"
        );
    }
}

#[test]
fn meltdown_recovers_the_kernel_secret() {
    let (cached, cpu) = recover(
        AttackClass::Meltdown,
        layout::PROBE,
        &KernelParams::default(),
    );
    assert!(
        cached.contains(&5),
        "kernel secret (5) not transmitted: {cached:?}"
    );
    assert!(
        cpu.stats().faults_raised > 0,
        "meltdown must fault architecturally"
    );
    // Architectural state never held the secret: recovery is purely
    // microarchitectural.
    assert!(cpu.arch_reg(evax::sim::isa::Reg::new(3)) != 5 << 6);
}

#[test]
fn lvi_transmits_the_injected_value() {
    let injected = layout::DEFAULT_SECRET ^ 0x1;
    let (cached, cpu) = recover(AttackClass::Lvi, layout::PROBE, &KernelParams::default());
    assert!(
        cached.contains(&injected),
        "injected value not transmitted: {cached:?}"
    );
    assert!(cpu.stats().lsq_false_forwards > 0);
}

#[test]
fn fallout_samples_the_victim_store() {
    let secret = layout::DEFAULT_SECRET ^ 0x2;
    let (cached, _) = recover(
        AttackClass::Fallout,
        layout::PROBE2,
        &KernelParams::default(),
    );
    assert!(
        cached.contains(&secret),
        "victim store not sampled: {cached:?}"
    );
}

#[test]
fn flush_reload_observes_the_victim_touch() {
    let params = KernelParams::default();
    let secret = layout::DEFAULT_SECRET ^ (params.seed & 0x7);
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let program = build_attack(AttackClass::FlushReload, &params, &mut rng);
    let mut cpu = Cpu::new(CpuConfig::default());
    let res = cpu.run(&program, 500_000);
    assert!(res.halted);
    // After the final flush+victim round, the victim's probe line must be
    // the reload the attacker times as "fast". We verify the channel by
    // replaying the timing measurement the kernel performs: the secret line
    // is present, its neighbours were flushed.
    let line = layout::PROBE + secret * 64;
    assert!(
        cpu.dcache().contains(line) || cpu.l2().contains(line),
        "victim touch not observable"
    );
    assert!(cpu.dcache().stats().flushes > 0);
}

#[test]
fn prime_probe_evicts_attacker_way_when_victim_bit_set() {
    // secret bit = DEFAULT_SECRET & 1 = 1 -> victim touches its congruent
    // line every round, so the attacker's primed set keeps losing a way.
    let mut rng = rand::rngs::StdRng::seed_from_u64(10);
    let program = build_attack(AttackClass::PrimeProbe, &KernelParams::default(), &mut rng);
    let mut cpu = Cpu::new(CpuConfig::default());
    cpu.run(&program, 500_000);
    assert!(
        cpu.dcache().stats().clean_evicts > 20,
        "victim activity must keep evicting primed ways: {}",
        cpu.dcache().stats().clean_evicts
    );
}

#[test]
fn rowhammer_corrupts_memory_it_never_wrote() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut cfg = CpuConfig::default();
    cfg.dram.hammer_threshold = 150;
    cfg.dram.hammer_jitter = 16;
    cfg.dram.refresh_interval = 50_000_000;
    let params = KernelParams {
        iterations: 24,
        ..Default::default()
    };
    let program = build_attack(AttackClass::Rowhammer, &params, &mut rng);
    let mut cpu = Cpu::new(cfg);
    cpu.run(&program, 800_000);
    let flips = cpu.dram().flips();
    assert!(!flips.is_empty(), "no bit flips induced");
    // Integrity violation: the flipped addresses were never stored to by the
    // program (the kernel only loads/flushes aggressor rows).
    for flip in flips {
        let addr = cpu.dram().flip_address(flip);
        let pristine = evax::sim::memory::Memory::new(u64::MAX).read_u8(addr);
        assert_ne!(
            cpu.memory().read_u8(addr),
            pristine,
            "flip at {addr:#x} did not corrupt backing memory"
        );
    }
}

#[test]
fn transmission_requires_the_transient_window() {
    // Ablation: with an always-on futuristic fence the same kernels run to
    // completion but transmit nothing.
    for (class, probe, secret) in [
        (
            AttackClass::SpectrePht,
            layout::PROBE,
            layout::DEFAULT_SECRET,
        ),
        (AttackClass::Meltdown, layout::PROBE, 5),
        (
            AttackClass::Lvi,
            layout::PROBE,
            layout::DEFAULT_SECRET ^ 0x1,
        ),
    ] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let program = build_attack(class, &KernelParams::default(), &mut rng);
        let cfg = CpuConfig {
            mitigation: evax::sim::MitigationMode::FenceFuturistic,
            ..Default::default()
        };
        let mut cpu = evax::attacks::tenant_core(&cfg);
        let res = cpu.run(&program, 500_000);
        assert!(res.halted, "{class} must still halt under fencing");
        let line = probe + secret * 64;
        assert!(
            !cpu.dcache().contains(line) && !cpu.l2().contains(line),
            "{class}: fencing must close the channel"
        );
    }
}
