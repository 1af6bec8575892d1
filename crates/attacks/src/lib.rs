//! # evax-attacks — attack kernels and benign workloads
//!
//! The EVAX paper evaluates 19 categories of microarchitectural attacks plus
//! three classic cache attacks, all run inside gem5 (§VII, *Workload*). This
//! crate provides the analog: every attack is a *kernel builder* that emits a
//! parameterized instruction stream for `evax-sim`, performing the same
//! microarchitectural phases (flush, mistrain, transient access, transmit,
//! recover) as the real exploit, so the HPC footprint the detector sees is of
//! the same class.
//!
//! Kernels take [`KernelParams`] — iteration counts, strides, decoy density,
//! delays — which is exactly the surface the paper's fuzzing tools
//! (Transynther, TRRespass, Osiris) mutate to generate evasive variants; the
//! fuzzer analogs in `evax-core` drive these knobs.
//!
//! Benign workloads ([`benign`]) mirror the paper's SPEC CPU 2006 selection
//! in microarchitectural character: compression, A* search, matrix AI,
//! discrete-event simulation, gene-sequence DP, scheduling/sorting and
//! pointer-chasing network simulation.
//!
//! ## Example
//!
//! ```
//! use evax_attacks::{AttackClass, KernelParams, build_attack};
//! use evax_sim::{Cpu, CpuConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let program = build_attack(AttackClass::SpectrePht, &KernelParams::default(), &mut rng);
//! let mut cpu = Cpu::new(CpuConfig::default());
//! let res = cpu.run(&program, 400_000);
//! assert!(res.committed_instructions > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benign;
pub mod cache_attacks;
pub mod carriers;
pub mod common;
pub mod compose;
pub mod covert;
pub mod dram_attacks;
pub mod evasion;
pub mod mds;
pub mod registry;
pub mod spectre;

pub use carriers::{
    build_carrier, build_carrier_attack, CarrierAttack, CarrierKind, CARRIER_ATTACKS, CARRIER_KINDS,
};
pub use common::KernelParams;
pub use evasion::{
    build_evasive_attack, evasive_params, generate_evasive_programs, EvasionStrategy,
    WeightProfile, EVASION_STRATEGIES,
};
pub use mds::tenant_core;
pub use registry::{
    build_attack, build_benign, AttackClass, BenignKind, ATTACK_CLASSES, BENIGN_KINDS,
};
