//! Property tests over the attack-kernel space: every class must build a
//! halting program under *any* fuzzable parameterization — the guarantee the
//! fuzzing tools in `evax-core` rely on.

use evax_attacks::{build_attack, KernelParams, ATTACK_CLASSES};
use evax_sim::CpuConfig;
use proptest::prelude::*;
use rand::SeedableRng;

fn params_strategy() -> impl Strategy<Value = KernelParams> {
    (
        1u32..48,
        1u32..48,
        1u64..6,
        0u32..64,
        0u32..128,
        1u32..20,
        any::<u64>(),
    )
        .prop_map(
            |(iterations, train_iters, stride, decoy, delay, probes, seed)| KernelParams {
                iterations,
                train_iters,
                stride: stride * 64,
                decoy_ops: decoy,
                delay_ops: delay,
                probe_lines: probes,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_class_halts_under_arbitrary_params(
        p in params_strategy(), class_idx in 0usize..21, rng_seed in 0u64..1000
    ) {
        let class = ATTACK_CLASSES[class_idx];
        let mut rng = rand::rngs::StdRng::seed_from_u64(rng_seed);
        let program = build_attack(class, &p, &mut rng);
        prop_assert!(!program.is_empty());
        let mut cpu = evax_attacks::tenant_core(&CpuConfig::default());
        let res = cpu.run(&program, 400_000);
        prop_assert!(
            res.halted || res.committed_instructions >= 400_000,
            "{class} wedged: {} instrs in {} cycles",
            res.committed_instructions,
            res.cycles
        );
    }

    #[test]
    fn kernels_are_deterministic_given_seeds(
        p in params_strategy(), class_idx in 0usize..21, rng_seed in 0u64..1000
    ) {
        let class = ATTACK_CLASSES[class_idx];
        let build = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(rng_seed);
            build_attack(class, &p, &mut rng)
        };
        let first = build();
        let second = build();
        prop_assert_eq!(first.instructions(), second.instructions());
    }

    #[test]
    fn mutation_stays_in_valid_space(seed in 0u64..5000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut p = KernelParams::default();
        for _ in 0..10 {
            p = p.mutate(&mut rng);
            prop_assert!(p.iterations > 0);
            prop_assert!(p.stride >= 64 && p.stride % 64 == 0);
            prop_assert!(p.probe_lines > 0);
        }
    }
}

#[test]
fn class_labels_cover_one_through_twenty_one() {
    let mut labels: Vec<usize> = ATTACK_CLASSES.iter().map(|c| c.label()).collect();
    labels.sort_unstable();
    assert_eq!(labels, (1..=21).collect::<Vec<_>>());
}
