//! Evasive-corpus generation: analogs of the automated attack-discovery
//! tools the paper evaluates against (Fig. 17) plus the "manual evasive
//! attacks" built with malware-community techniques (§VII).
//!
//! * **Transynther** (Moghimi et al.): mutates Meltdown/MDS-family building
//!   blocks — here, parameter mutation over the fault/assist kernels.
//! * **TRRespass** (Frigo et al.): many-sided Rowhammer patterns — aggressor
//!   count/stride mutations.
//! * **Osiris** (Weber et al.): automated side-channel discovery from
//!   (reset, trigger, measure) primitive triples — here, randomly composed
//!   timing kernels.
//! * **Manual evasion**: decoy injection and bandwidth dilution applied to
//!   every standard kernel.

use evax_attacks::{build_attack, AttackClass, KernelParams};
use evax_sim::isa::{AluOp, Cond, Program, ProgramBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::collect::{collect_program, CollectConfig};
use crate::dataset::{Dataset, Normalizer};

/// The fuzzing tool analogs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuzzTool {
    /// Meltdown/MDS-family mutation (Transynther analog).
    Transynther,
    /// Many-sided Rowhammer mutation (TRRespass analog).
    TrRespass,
    /// Random primitive composition (Osiris analog).
    Osiris,
    /// Manual evasion: decoys + bandwidth dilution on standard kernels.
    ManualEvasion,
}

impl std::fmt::Display for FuzzTool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FuzzTool::Transynther => "transynther",
            FuzzTool::TrRespass => "trrespass",
            FuzzTool::Osiris => "osiris",
            FuzzTool::ManualEvasion => "manual-evasion",
        };
        f.write_str(s)
    }
}

/// All tools.
pub const FUZZ_TOOLS: [FuzzTool; 4] = [
    FuzzTool::Transynther,
    FuzzTool::TrRespass,
    FuzzTool::Osiris,
    FuzzTool::ManualEvasion,
];

/// Generates `n_programs` evasive attack programs for a tool. Each is
/// returned with its ground-truth class label.
pub fn generate_programs(
    tool: FuzzTool,
    n_programs: usize,
    seed: u64,
) -> Vec<(Program, AttackClass)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF022);
    let mut out = Vec::with_capacity(n_programs);
    for _ in 0..n_programs {
        let entry = match tool {
            FuzzTool::Transynther => {
                let classes = [
                    AttackClass::Meltdown,
                    AttackClass::MedusaCacheIndexing,
                    AttackClass::MedusaUnalignedStl,
                    AttackClass::MedusaShadowRepMov,
                    AttackClass::Lvi,
                    AttackClass::Fallout,
                ];
                let class = classes[rng.gen_range(0..classes.len())];
                // Aggressive dilution: heavy decoys and long idle stretches
                // between rounds shrink the per-window footprint — the
                // bandwidth-evasion strategy that defeats per-window
                // detectors.
                let mut params = mutated_params(&mut rng, 2);
                params.decoy_ops = rng.gen_range(24..96);
                params.delay_ops = rng.gen_range(64..256);
                params.iterations = rng.gen_range(64..256);
                (build_attack(class, &params, &mut rng), class)
            }
            FuzzTool::TrRespass => {
                let params = KernelParams {
                    probe_lines: rng.gen_range(2..16), // many-sided hammering
                    iterations: rng.gen_range(64..256),
                    decoy_ops: rng.gen_range(16..64),
                    delay_ops: rng.gen_range(32..192),
                    seed: rng.gen(),
                    ..Default::default()
                };
                (
                    build_attack(AttackClass::Rowhammer, &params, &mut rng),
                    AttackClass::Rowhammer,
                )
            }
            FuzzTool::Osiris => {
                let class = osiris_class(&mut rng);
                (osiris_program(&mut rng), class)
            }
            FuzzTool::ManualEvasion => {
                let class = evax_attacks::ATTACK_CLASSES
                    [rng.gen_range(0..evax_attacks::ATTACK_CLASSES.len())];
                let params = KernelParams {
                    decoy_ops: rng.gen_range(32..96),
                    delay_ops: rng.gen_range(96..320),
                    iterations: rng.gen_range(32..128), // low bandwidth
                    seed: rng.gen(),
                    ..Default::default()
                };
                (build_attack(class, &params, &mut rng), class)
            }
        };
        out.push(entry);
    }
    out
}

fn mutated_params(rng: &mut StdRng, steps: usize) -> KernelParams {
    let mut p = KernelParams {
        seed: rng.gen(),
        ..Default::default()
    };
    for _ in 0..steps {
        p = p.mutate(rng);
    }
    p
}

/// Osiris emits timing kernels without knowing their class; for ground
/// truth we label by the primitive family it composed.
fn osiris_class(rng: &mut StdRng) -> AttackClass {
    match rng.gen_range(0..3) {
        0 => AttackClass::FlushReload,
        1 => AttackClass::RdRand,
        _ => AttackClass::PrimeProbe,
    }
}

/// Composes a random (reset, trigger, measure) side-channel kernel — the
/// Osiris search step. The composition is random but always ends in a timed
/// measurement, so every emitted program is a working timing channel.
fn osiris_program(rng: &mut StdRng) -> Program {
    use evax_attacks::common::{layout, regs};
    let (a, v, t1, t2) = (
        regs::attack(0),
        regs::attack(1),
        regs::attack(2),
        regs::attack(3),
    );
    let mut b = ProgramBuilder::new("osiris-generated");
    let target = layout::PROBE + rng.gen_range(0..32u64) * 64;
    b.li(a, target);
    let reset = rng.gen_range(0..3);
    let trigger = rng.gen_range(0..3);
    let iters = rng.gen_range(16..64u64);
    let ctr = regs::attack(7);
    let limit = regs::attack(8);
    b.li(ctr, 0);
    b.li(limit, iters);
    let top = b.label();
    // Reset primitive.
    match reset {
        0 => {
            b.flush(a, 0);
        }
        1 => {
            // Eviction-based reset.
            for w in 0..9i64 {
                b.load(v, a, w * 64 * 128);
            }
        }
        _ => {
            b.prefetch(a, 0);
            b.flush(a, 0);
        }
    }
    // Trigger primitive.
    match trigger {
        0 => {
            b.load(v, a, 0);
        }
        1 => {
            b.rdrand(v);
            b.rdrand(v);
        }
        _ => {
            b.store(v, a, 0);
        }
    }
    // Measure primitive (always timed).
    b.rdcycle(t1);
    match rng.gen_range(0..2) {
        0 => {
            b.load(v, a, 0);
        }
        _ => {
            b.rdrand(v);
        }
    }
    b.rdcycle(t2);
    b.alu(AluOp::Sub, t2, t2, t1);
    // Dilution: benign-looking filler between measurement rounds.
    let filler = rng.gen_range(8..64);
    let d = regs::decoy(4);
    for k in 0..filler {
        if k % 3 == 0 {
            b.load(v, a, 8);
        } else {
            b.alu_imm(AluOp::Add, d, d, 1);
        }
    }
    b.alu_imm(AluOp::Add, ctr, ctr, 1);
    b.branch(Cond::Lt, ctr, limit, top);
    b.halt();
    b.build()
}

/// Runs an evasive corpus through the simulator, producing a labeled
/// dataset of `n_programs` per tool under an existing normalizer.
///
/// Program *generation* is cheap and stays serial (it fixes the work list in
/// canonical tool/program order); the simulation of each program fans out
/// across `collect_cfg.parallelism` workers and merges back in that order,
/// so the corpus is bit-identical at any thread count.
pub fn collect_corpus(
    tools: &[FuzzTool],
    n_programs_per_tool: usize,
    collect_cfg: &CollectConfig,
    norm: &Normalizer,
    seed: u64,
) -> Dataset {
    collect_cfg.assert_valid();
    let mut programs: Vec<(Program, AttackClass)> = Vec::new();
    for (ti, &tool) in tools.iter().enumerate() {
        programs.extend(generate_programs(
            tool,
            n_programs_per_tool,
            seed.wrapping_add(ti as u64 * 7919),
        ));
    }
    let per_program = crate::par::map(collect_cfg.parallelism, &programs, |(program, class)| {
        collect_program(program, class.label(), collect_cfg, norm)
    });
    let mut ds = Dataset::new();
    for s in per_program.into_iter().flatten() {
        ds.push(s);
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use evax_sim::CpuConfig;

    #[test]
    fn every_tool_generates_runnable_programs() {
        for tool in FUZZ_TOOLS {
            for (program, _class) in generate_programs(tool, 3, 11) {
                let mut cpu = evax_attacks::tenant_core(&CpuConfig::default());
                let res = cpu.run(&program, 300_000);
                assert!(res.halted, "{tool}: {} did not halt", program.name());
            }
        }
    }

    #[test]
    fn mutation_produces_varied_programs() {
        let a = generate_programs(FuzzTool::Transynther, 8, 1);
        let lengths: std::collections::HashSet<usize> = a.iter().map(|(p, _)| p.len()).collect();
        assert!(lengths.len() > 2, "mutations should vary program shape");
    }

    #[test]
    fn osiris_programs_always_measure() {
        for (program, _) in generate_programs(FuzzTool::Osiris, 10, 3) {
            let has_timer = program
                .instructions()
                .iter()
                .any(|op| matches!(op, evax_sim::isa::Op::RdCycle { .. }));
            assert!(has_timer, "osiris kernels must time something");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate_programs(FuzzTool::ManualEvasion, 4, 9);
        let b = generate_programs(FuzzTool::ManualEvasion, 4, 9);
        assert_eq!(
            a.iter().map(|(p, _)| p.len()).collect::<Vec<_>>(),
            b.iter().map(|(p, _)| p.len()).collect::<Vec<_>>()
        );
    }
}
