//! Evasion-attack generator: the adversary's half of the arms race.
//!
//! The paper's reactive loop (§VI-C, Fig. 17) assumes attackers respond to
//! a deployed detector with *evasive* variants — the same exploit phases,
//! reshaped so their per-window HPC footprint slides under the decision
//! boundary. This module generates those variants deterministically, in
//! three escalating strategies:
//!
//! * [`EvasionStrategy::BenignPadding`] — interleave benign-looking decoy
//!   instructions inside every attack round, diluting the malicious
//!   fraction of each sampling window (the malware-community "mimicry"
//!   technique).
//! * [`EvasionStrategy::RateModulation`] — stretch the attack over time
//!   with dependent-chain delays and fewer rounds, lowering the leak
//!   bandwidth each window observes.
//! * [`EvasionStrategy::WeightGuided`] — the white-box step: read the
//!   victim detector's weight vector, bucket its mass over the HPC groups
//!   ([`WeightProfile`]), and steer the knobs that feed the heaviest
//!   counters (probe lines for cache-heavy detectors, training iterations
//!   for branch-heavy ones, hammer rounds for DRAM-heavy ones) while
//!   scaling dilution with the detector's concentration.
//!
//! Generation is a pure function of `(strategy, victim weights, intensity,
//! seed)` — the same determinism contract as [`crate::registry`] — so an
//! arms-race harness replays identically at any thread count.
//!
//! The victim weights arrive as a plain `&[f32]` aligned with the victim's
//! [`evax_sim::FeatureSchema`] (any engineered-feature tail beyond the
//! sensor columns is ignored): this crate sits below the detector crates,
//! so the adversary sees exactly what a real one could dump from a stolen
//! model file — numbers, not types.

use evax_sim::isa::{Program, ProgramBuilder};
use evax_sim::FeatureSchema;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{emit_decoys, emit_delay, KernelParams};
use crate::compose::compose;
use crate::registry::{build_attack, AttackClass, ATTACK_CLASSES};

/// An evasion strategy — how the adversary reshapes a kernel's footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvasionStrategy {
    /// Dilute each window with benign decoy instructions.
    BenignPadding,
    /// Lower leak bandwidth: long idle stretches, fewer rounds.
    RateModulation,
    /// White-box: target the knobs behind the victim's heaviest weights.
    WeightGuided,
}

impl EvasionStrategy {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            EvasionStrategy::BenignPadding => "benign_padding",
            EvasionStrategy::RateModulation => "rate_modulation",
            EvasionStrategy::WeightGuided => "weight_guided",
        }
    }
}

impl std::fmt::Display for EvasionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Every strategy, in escalation order.
pub const EVASION_STRATEGIES: [EvasionStrategy; 3] = [
    EvasionStrategy::BenignPadding,
    EvasionStrategy::RateModulation,
    EvasionStrategy::WeightGuided,
];

/// Absolute weight mass of a victim detector, bucketed over the HPC
/// counter groups the attack knobs can actually influence.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WeightProfile {
    /// Branch-prediction counters (`bp.*` plus mispredict/branch-named
    /// pipeline counters).
    pub branch: f32,
    /// Cache-hierarchy counters (`icache.*`, `dcache.*`, `l2.*`).
    pub cache: f32,
    /// TLB counters (`itlb.*`, `dtlb.*`).
    pub tlb: f32,
    /// DRAM counters (`dram.*`).
    pub dram: f32,
    /// Transient-execution counters (`spec.*`, `faults.*`).
    pub speculation: f32,
    /// Everything else (pipeline occupancy, derived rates, ...).
    pub other: f32,
}

impl WeightProfile {
    /// Buckets `weights` by the counter name at the same index.
    ///
    /// `weights` is read positionally against the baseline
    /// [`FeatureSchema`] ([`WeightProfile::from_weights_with_schema`]
    /// takes an explicit schema); a shorter slice profiles a prefix, and
    /// entries past the schema's sensor columns (engineered features) are
    /// ignored — their provenance is opaque to the adversary.
    pub fn from_weights(weights: &[f32]) -> WeightProfile {
        WeightProfile::from_weights_with_schema(weights, &FeatureSchema::baseline())
    }

    /// [`WeightProfile::from_weights`] against an explicit schema (e.g. an
    /// energy-enabled sensor configuration, whose `energy.*` columns
    /// bucket with the structures they meter).
    pub fn from_weights_with_schema(weights: &[f32], schema: &FeatureSchema) -> WeightProfile {
        let mut p = WeightProfile::default();
        for ((name, modality), &w) in schema.columns().zip(weights.iter()) {
            if modality == evax_sim::Modality::Engineered {
                continue;
            }
            let mass = if w.is_finite() { w.abs() } else { 0.0 };
            let group = name.split('.').next().unwrap_or("");
            let bucket = match group {
                "bp" => &mut p.branch,
                _ if name.contains("Branch")
                    || name.contains("Mispredict")
                    || name.contains("Predicted") =>
                {
                    &mut p.branch
                }
                "icache" | "dcache" | "l2" => &mut p.cache,
                "itlb" | "dtlb" => &mut p.tlb,
                "dram" => &mut p.dram,
                "spec" | "faults" => &mut p.speculation,
                _ => &mut p.other,
            };
            *bucket += mass;
        }
        p
    }

    /// Total bucketed mass.
    pub fn total(&self) -> f32 {
        self.branch + self.cache + self.tlb + self.dram + self.speculation + self.other
    }

    /// Name of the heaviest *attack-steerable* group (ties break in the
    /// declaration order above; `other` is never dominant — the adversary
    /// has no knob for it).
    pub fn dominant(&self) -> &'static str {
        let groups = [
            ("branch", self.branch),
            ("cache", self.cache),
            ("tlb", self.tlb),
            ("dram", self.dram),
            ("speculation", self.speculation),
        ];
        let mut best = groups[0];
        for g in &groups[1..] {
            if g.1 > best.1 {
                best = *g;
            }
        }
        best.0
    }

    /// Fraction of steerable mass held by the dominant group — how
    /// concentrated (and therefore how steerable) the victim is.
    pub fn concentration(&self) -> f32 {
        let steerable = self.branch + self.cache + self.tlb + self.dram + self.speculation;
        if steerable <= 0.0 {
            return 0.0;
        }
        let top = [
            self.branch,
            self.cache,
            self.tlb,
            self.dram,
            self.speculation,
        ]
        .into_iter()
        .fold(0.0f32, f32::max);
        top / steerable
    }
}

/// Derives one evasive [`KernelParams`] draw for `strategy` against a
/// victim with weight profile `profile`, at escalation `intensity`
/// (1-based round number, clamped to `1..=8`).
pub fn evasive_params(
    strategy: EvasionStrategy,
    profile: &WeightProfile,
    intensity: u32,
    rng: &mut StdRng,
) -> KernelParams {
    let level = intensity.clamp(1, 8);
    let mut p = KernelParams {
        seed: rng.gen(),
        ..Default::default()
    };
    match strategy {
        EvasionStrategy::BenignPadding => {
            // Mimicry: the attack round itself shrinks while the benign
            // interleave grows with every escalation.
            p.decoy_ops = (rng.gen_range(48..128u32) * level).min(768);
            p.iterations = rng.gen_range(12..40);
            p.delay_ops = rng.gen_range(16..64);
        }
        EvasionStrategy::RateModulation => {
            // Bandwidth evasion: long dependent-chain idles between rounds
            // spread the leak across many sampling windows.
            p.delay_ops = (rng.gen_range(128..384u32) * level).min(2048);
            p.iterations = rng.gen_range(6..24);
            p.decoy_ops = rng.gen_range(8..32);
        }
        EvasionStrategy::WeightGuided => {
            // White-box: starve the counters the victim weighs heaviest,
            // and scale dilution with how concentrated the victim is.
            let dilution = 1.0 + profile.concentration();
            p.decoy_ops = ((rng.gen_range(32..96u32) * level) as f32 * dilution) as u32;
            p.delay_ops = ((rng.gen_range(64..256u32) * level) as f32 * dilution) as u32;
            p.decoy_ops = p.decoy_ops.min(768);
            p.delay_ops = p.delay_ops.min(2048);
            match profile.dominant() {
                "cache" => {
                    // Fewer probe lines + wider stride: less eviction and
                    // flush traffic per window.
                    p.probe_lines = rng.gen_range(1..4);
                    p.stride = 64 * rng.gen_range(4..8u64);
                    p.iterations = rng.gen_range(8..32);
                }
                "branch" => {
                    // Longer well-predicted training runs amortize the
                    // mispredict burst the detector keys on.
                    p.train_iters = rng.gen_range(48..128);
                    p.iterations = rng.gen_range(4..16);
                }
                "dram" => {
                    // Fewer hammer rounds per window.
                    p.iterations = rng.gen_range(4..12);
                    p.probe_lines = rng.gen_range(1..4);
                }
                "tlb" => {
                    // Stay inside a few pages: narrow stride, few lines.
                    p.stride = 64;
                    p.probe_lines = rng.gen_range(1..3);
                    p.iterations = rng.gen_range(8..32);
                }
                _ => {
                    // Speculation-heavy (or flat) victims get rate cuts.
                    p.iterations = rng.gen_range(4..16);
                    p.train_iters = rng.gen_range(8..24);
                }
            }
        }
    }
    p
}

/// Emits a benign-mimicry padding segment: `ops` decoy instructions (ALU
/// mix + scratch loads) that execute once and fall through.
fn decoy_pad(ops: u32, rng: &mut StdRng) -> Program {
    let mut b = ProgramBuilder::new("pad-decoy");
    emit_decoys(&mut b, ops, rng);
    b.halt();
    b.build()
}

/// Emits a bandwidth-modulation padding segment: a dependent ALU chain of
/// roughly `2 * ops` instructions with no memory or branch traffic.
fn delay_pad(ops: u32) -> Program {
    let mut b = ProgramBuilder::new("pad-delay");
    emit_delay(&mut b, ops);
    b.halt();
    b.build()
}

/// Builds one evasive attack: the kernel (with `params` already steered by
/// [`evasive_params`]) spliced between two padding segments, so most of
/// the program's sampling windows carry no attack footprint at all.
///
/// Padding is the load-bearing half of evasion here: the kernels' own
/// decoy/delay knobs execute once per *program*, which a per-window
/// detector barely notices, while composed padding segments occupy whole
/// sampling windows. The pad *mix* follows the strategy — benign-mimicry
/// decoys for [`EvasionStrategy::BenignPadding`], silent dependent-chain
/// delays for [`EvasionStrategy::RateModulation`], and a blend scaled by
/// the victim's weight concentration for [`EvasionStrategy::WeightGuided`].
pub fn build_evasive_attack(
    strategy: EvasionStrategy,
    class: AttackClass,
    params: &KernelParams,
    profile: &WeightProfile,
    intensity: u32,
    rng: &mut StdRng,
) -> Program {
    let level = intensity.clamp(1, 8);
    let attack = build_attack(class, params, rng);
    let (pre, post) = match strategy {
        EvasionStrategy::BenignPadding => {
            let ops = (800 + 400 * level).min(3200);
            (decoy_pad(ops, rng), decoy_pad(ops, rng))
        }
        EvasionStrategy::RateModulation => {
            let ops = (600 + 300 * level).min(2400);
            (delay_pad(ops), delay_pad(ops))
        }
        EvasionStrategy::WeightGuided => {
            // Dilution effort tracks how concentrated (steerable) the
            // victim is; the mix covers both pad signatures.
            let ops = (((500 + 250 * level) as f32) * (1.0 + profile.concentration())) as u32;
            (decoy_pad(ops.min(3200), rng), delay_pad(ops.min(2400)))
        }
    };
    // Kernels with register-indirect control flow (`jmp_ind`) bake
    // absolute instruction indices into registers, which composition
    // cannot rebase — those stay at offset 0 and take all padding as a
    // suffix. A single attack segment keeps at most one fault handler in
    // the composite, so composition cannot fail either way.
    let position_dependent = attack
        .instructions()
        .iter()
        .any(|op| matches!(op, evax_sim::isa::Op::JmpInd { .. }));
    let segments = if position_dependent {
        [attack, pre, post]
    } else {
        [pre, attack, post]
    };
    compose(&segments).expect("pad/attack/pad composition is structurally valid")
}

/// Generates `n_programs` evasive attack programs against a victim whose
/// (stolen) weight vector is `victim_weights`, cycling through
/// [`ATTACK_CLASSES`] so every class appears in a large enough corpus.
/// Each program is returned with its ground-truth class.
///
/// Deterministic in `(strategy, victim_weights, intensity, seed)`.
pub fn generate_evasive_programs(
    strategy: EvasionStrategy,
    n_programs: usize,
    victim_weights: &[f32],
    intensity: u32,
    seed: u64,
) -> Vec<(Program, AttackClass)> {
    let profile = WeightProfile::from_weights(victim_weights);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE7A5_E0DE);
    let mut out = Vec::with_capacity(n_programs);
    for i in 0..n_programs {
        // Deterministic class rotation (not an RNG draw): corpus class
        // balance is independent of how many RNG values each kernel
        // builder consumes.
        let class = ATTACK_CLASSES[i % ATTACK_CLASSES.len()];
        let params = evasive_params(strategy, &profile, intensity, &mut rng);
        out.push((
            build_evasive_attack(strategy, class, &params, &profile, intensity, &mut rng),
            class,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use evax_sim::{CpuConfig, HPC_BASE_DIM};

    fn fake_weights(heavy: &str) -> Vec<f32> {
        FeatureSchema::baseline()
            .names()
            .map(|n| if n.starts_with(heavy) { 1.0 } else { 0.01 })
            .collect()
    }

    #[test]
    fn profile_buckets_mass_by_group() {
        let p = WeightProfile::from_weights(&fake_weights("dcache"));
        assert_eq!(p.dominant(), "cache");
        assert!(p.cache > p.branch && p.cache > p.dram);
        assert!(p.concentration() > 0.5);
        // A longer-than-base vector (engineered tail) must not panic and
        // must not change the bucketed mass.
        let mut extended = fake_weights("dcache");
        extended.extend([100.0; 7]);
        assert_eq!(WeightProfile::from_weights(&extended), p);
        assert_eq!(extended.len(), HPC_BASE_DIM + 7);
    }

    #[test]
    fn profile_ignores_non_finite_weights() {
        let mut w = fake_weights("bp");
        w[0] = f32::NAN;
        w[1] = f32::INFINITY;
        let p = WeightProfile::from_weights(&w);
        assert!(p.total().is_finite());
        assert_eq!(p.dominant(), "branch");
    }

    #[test]
    fn every_strategy_generates_runnable_programs() {
        let weights = fake_weights("l2");
        for strategy in EVASION_STRATEGIES {
            for (program, _class) in generate_evasive_programs(strategy, 4, &weights, 2, 17) {
                let mut cpu = crate::tenant_core(&CpuConfig::default());
                let res = cpu.run(&program, 400_000);
                assert!(res.halted, "{strategy}: {} did not halt", program.name());
            }
        }
    }

    #[test]
    fn weight_guided_targets_the_dominant_group() {
        let mut rng = StdRng::seed_from_u64(3);
        let cache_victim = WeightProfile::from_weights(&fake_weights("l2"));
        let branch_victim = WeightProfile::from_weights(&fake_weights("bp"));
        for _ in 0..8 {
            let pc = evasive_params(EvasionStrategy::WeightGuided, &cache_victim, 1, &mut rng);
            assert!(pc.probe_lines < 4, "cache-heavy victims get fewer lines");
            let pb = evasive_params(EvasionStrategy::WeightGuided, &branch_victim, 1, &mut rng);
            assert!(pb.train_iters >= 48, "branch-heavy victims get long runs");
        }
    }

    #[test]
    fn escalation_raises_dilution() {
        let profile = WeightProfile::from_weights(&fake_weights("dram"));
        let mean_decoys = |intensity: u32| {
            let mut rng = StdRng::seed_from_u64(9);
            (0..16)
                .map(|_| {
                    evasive_params(
                        EvasionStrategy::BenignPadding,
                        &profile,
                        intensity,
                        &mut rng,
                    )
                    .decoy_ops as u64
                })
                .sum::<u64>()
        };
        assert!(mean_decoys(4) > mean_decoys(1));
    }

    #[test]
    fn deterministic_given_seed() {
        let weights = fake_weights("dram");
        let a = generate_evasive_programs(EvasionStrategy::WeightGuided, 5, &weights, 3, 7);
        let b = generate_evasive_programs(EvasionStrategy::WeightGuided, 5, &weights, 3, 7);
        assert_eq!(a.len(), b.len());
        for ((pa, ca), (pb, cb)) in a.iter().zip(b.iter()) {
            assert_eq!(ca, cb);
            assert_eq!(pa.len(), pb.len());
        }
    }
}
