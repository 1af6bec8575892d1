//! The functional fast-forward path agrees architecturally with the
//! detailed core: fast-forwarding a registry program by the number of
//! instructions the detailed core committed lands on the same retired
//! count, architectural pc and halted state, and — for programs whose
//! values do not depend on timing or the wrong path — the same registers.

use evax::attacks::benign::Scale;
use evax::attacks::{build_attack, build_benign, KernelParams, ATTACK_CLASSES, BENIGN_KINDS};
use evax::sim::isa::{Op, Program};
use evax::sim::{Cpu, CpuConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MAX_INSTRS: u64 = 6_000;

fn fresh_core() -> Cpu {
    evax::attacks::tenant_core(&CpuConfig::default())
}

/// `RdCycle` reads timing and `RdRand` draws from a generator the wrong
/// path also advances, so their values differ between the paths by design.
fn timing_dependent(program: &Program) -> bool {
    program
        .instructions()
        .iter()
        .any(|op| matches!(op, Op::RdCycle { .. } | Op::RdRand { .. }))
}

fn assert_functional_matches_detailed(label: &str, program: &Program) {
    let mut detailed = fresh_core();
    let run = detailed.run(program, MAX_INSTRS);

    let mut functional = fresh_core();
    // A cursor begun on the fresh core reports the fast-forward's totals
    // (retired count, halted flag, registers) in `RunResult` shape.
    let cursor = functional.begin_sampled(MAX_INSTRS, u64::MAX);
    let retired = functional.fast_forward(program, run.committed_instructions);
    let ff = cursor.result(&functional);

    assert_eq!(retired, run.committed_instructions, "[{label}] retired");
    assert_eq!(ff.committed_instructions, retired, "[{label}] committed");
    assert_eq!(
        functional.arch_pc(),
        detailed.arch_pc(),
        "[{label}] arch pc"
    );
    assert_eq!(ff.halted, run.halted, "[{label}] halted");
    assert_eq!(
        functional.stats().faults_raised,
        detailed.stats().faults_raised,
        "[{label}] faults raised"
    );
    if !timing_dependent(program) {
        assert_eq!(ff.regs, run.regs, "[{label}] registers");
    }
}

#[test]
fn fast_forward_matches_detailed_architecture_on_the_registry() {
    for seed in [1u64, 7, 42] {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = KernelParams {
            iterations: 24,
            ..Default::default()
        };
        for class in ATTACK_CLASSES {
            let program = build_attack(class, &params, &mut rng);
            assert_functional_matches_detailed(&format!("{class} seed {seed}"), &program);
        }
        for kind in BENIGN_KINDS {
            let program = build_benign(kind, Scale(3_000), &mut rng);
            assert_functional_matches_detailed(&format!("{kind} seed {seed}"), &program);
        }
    }
}
