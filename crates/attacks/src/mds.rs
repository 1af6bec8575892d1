//! Fault/assist-based transient kernels: Meltdown, LVI, Fallout, and the
//! three Medusa variants (paper §II, §VII).

use evax_sim::isa::{AluOp, Program, ProgramBuilder};
use evax_sim::{Cpu, CpuConfig};
use rand::Rng;

use crate::common::{emit_decoys, emit_delay, emit_loop, layout, regs, KernelParams};

/// The kernel-space address kernels read from. The harness (or the kernel's
/// own setup phase, which stands in for the victim OS) plants the secret
/// here; [`tenant_core`] builds a core with it planted.
pub const KERNEL_SECRET_ADDR: u64 = 0xFFFF_0000_0000;

/// A fresh core with the victim OS's kernel secret (5) planted at
/// [`KERNEL_SECRET_ADDR`]: the tenant every kernel in this crate expects to
/// run on.
pub fn tenant_core(cfg: &CpuConfig) -> Cpu {
    let mut cpu = Cpu::new(cfg.clone());
    cpu.memory_mut().write_u64(KERNEL_SECRET_ADDR, 5);
    cpu
}

/// Meltdown: prefetch the kernel line (no fault), transiently read the
/// privileged secret, transmit through the probe array, catch the fault and
/// repeat (paper §II *Transient Attack Examples*, steps 1–6).
pub fn meltdown(p: &KernelParams, rng: &mut impl Rng) -> Program {
    let (rk, rpr, sec, paddr, tmp, filler) = (
        regs::attack(0),
        regs::attack(1),
        regs::attack(2),
        regs::attack(3),
        regs::attack(4),
        regs::attack(5),
    );
    let mut b = ProgramBuilder::new("meltdown");
    let handler = b.forward_label();
    b.on_fault(handler);
    b.li(rk, KERNEL_SECRET_ADDR);
    b.li(rpr, layout::PROBE);
    let rounds = regs::attack(7);
    let top = b.label();
    // Step 1: flush the probe lines.
    for i in 0..p.probe_lines.max(1) as i64 {
        b.flush(rpr, i * p.stride as i64);
    }
    // Step 2: prefetch to have the kernel address in L1.
    b.prefetch(rk, 0);
    // Step 4: fill the ROB with long-latency filler on another unit.
    b.li(filler, 3);
    for _ in 0..4 {
        b.alu(AluOp::Mul, filler, filler, filler);
    }
    // Steps 3+5: transient privileged load + dependent probe access.
    b.load(sec, rk, 0);
    b.alu_imm(AluOp::Shl, sec, sec, 6);
    b.alu(AluOp::Add, paddr, rpr, sec);
    b.load(tmp, paddr, 0);
    b.nop();
    b.bind(handler);
    // Step 6: time the reload of a probe line (recovery phase).
    b.rdcycle(tmp);
    b.load(tmp, rpr, 0);
    b.alu_imm(AluOp::Add, rounds, rounds, 1);
    b.li(tmp, p.iterations as u64);
    b.branch(evax_sim::isa::Cond::Lt, rounds, tmp, top);
    emit_decoys(&mut b, p.decoy_ops, rng);
    emit_delay(&mut b, p.delay_ops);
    b.halt();
    b.build()
}

/// LVI (load value injection): the attacker plants a value in the store
/// buffer; the victim's assisted load (cold TLB, 4K-aliasing) transiently
/// computes on the injected value and transmits it.
pub fn lvi(p: &KernelParams, rng: &mut impl Rng) -> Program {
    let (sa, la, rpr, inj, out, dep) = (
        regs::attack(0),
        regs::attack(1),
        regs::attack(2),
        regs::attack(3),
        regs::attack(4),
        regs::attack(5),
    );
    let mut b = ProgramBuilder::new("lvi");
    b.li(rpr, layout::PROBE);
    let rounds = regs::attack(7);
    emit_loop(&mut b, rounds, p.iterations as u64, |b| {
        // Fresh page each round keeps the victim load's TLB entry cold.
        b.alu_imm(AluOp::Shl, la, rounds, 12);
        b.alu_imm(AluOp::Add, la, la, layout::VICTIM + 0x340);
        b.li(sa, layout::SCRATCH + 0x340); // 4K-aliases the victim load
                                           // Attacker injection: poison the store buffer.
        b.li(inj, layout::DEFAULT_SECRET ^ 0x1);
        b.store(inj, sa, 0);
        // Victim: assisted load picks up the poison transiently.
        b.load(out, la, 0);
        b.alu_imm(AluOp::Shl, dep, out, 6);
        b.alu(AluOp::Add, dep, rpr, dep);
        b.load(inj, dep, 0); // transmit
    });
    emit_decoys(&mut b, p.decoy_ops, rng);
    emit_delay(&mut b, p.delay_ops);
    b.halt();
    b.build()
}

/// Fallout (store-buffer data sampling): the *victim* stores a secret; the
/// attacker's 4K-aliasing assisted load reads it out of the write
/// buffer transiently.
pub fn fallout(p: &KernelParams, rng: &mut impl Rng) -> Program {
    let (sa, la, rpr, secv, out, dep) = (
        regs::attack(0),
        regs::attack(1),
        regs::attack(2),
        regs::attack(3),
        regs::attack(4),
        regs::attack(5),
    );
    let mut b = ProgramBuilder::new("fallout");
    b.li(rpr, layout::PROBE2);
    let rounds = regs::attack(7);
    emit_loop(&mut b, rounds, p.iterations as u64, |b| {
        // Victim phase: store a secret to victim memory.
        b.li(sa, layout::VICTIM + 0x7C0);
        b.li(secv, layout::DEFAULT_SECRET ^ 0x2);
        b.store(secv, sa, 0);
        // Attacker phase: read a cold 4K-aliasing address; the store buffer
        // forwards the victim's in-flight secret.
        b.alu_imm(AluOp::Shl, la, rounds, 12);
        b.alu_imm(AluOp::Add, la, la, layout::SCRATCH + 0x10_0000 + 0x7C0);
        b.load(out, la, 0);
        b.alu_imm(AluOp::Shl, dep, out, 6);
        b.alu(AluOp::Add, dep, rpr, dep);
        b.load(out, dep, 0); // transmit
    });
    emit_decoys(&mut b, p.decoy_ops, rng);
    emit_delay(&mut b, p.delay_ops);
    b.halt();
    b.build()
}

/// Which Medusa leakage variant to build (paper §VIII-C: "cache indexing,
/// unaligned store-to-load forwarding, and shadow REP MOV").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MedusaVariant {
    /// V1: cache-indexing conflicts while sampling.
    CacheIndexing,
    /// V2: unaligned store-to-load forwarding.
    UnalignedStoreLoad,
    /// V3: shadow REP MOV — block-copy storms through the store buffer.
    ShadowRepMov,
}

/// Medusa: Meltdown-style sampling through write-combining/store-buffer
/// assists, in three variants with distinct microarchitectural mixes.
pub fn medusa(variant: MedusaVariant, p: &KernelParams, rng: &mut impl Rng) -> Program {
    let (sa, la, rpr, val, out, dep, idx) = (
        regs::attack(0),
        regs::attack(1),
        regs::attack(2),
        regs::attack(3),
        regs::attack(4),
        regs::attack(5),
        regs::attack(6),
    );
    let name = match variant {
        MedusaVariant::CacheIndexing => "medusa-cache-indexing",
        MedusaVariant::UnalignedStoreLoad => "medusa-unaligned-stl",
        MedusaVariant::ShadowRepMov => "medusa-rep-mov",
    };
    let mut b = ProgramBuilder::new(name);
    b.li(rpr, layout::PROBE);
    let rounds = regs::attack(7);
    emit_loop(&mut b, rounds, p.iterations as u64, |b| {
        match variant {
            MedusaVariant::CacheIndexing => {
                // Conflicting same-set stores precede the sampling load.
                let set_stride = 64 * 128; // L1D sets * line
                b.li(val, layout::DEFAULT_SECRET ^ 0x3);
                for w in 0..4i64 {
                    b.li(sa, layout::VICTIM + 0x3C0);
                    b.store(val, sa, w * set_stride);
                }
            }
            MedusaVariant::UnalignedStoreLoad => {
                // Straddling (unaligned) store before the aliasing load.
                b.li(sa, layout::VICTIM + 0x3C0 + 4);
                b.li(val, (layout::DEFAULT_SECRET ^ 0x3) << 32);
                b.store(val, sa, 0);
                b.li(sa, layout::VICTIM + 0x3C0);
                b.li(val, layout::DEFAULT_SECRET ^ 0x3);
                b.store(val, sa, 0);
            }
            MedusaVariant::ShadowRepMov => {
                // Block-copy storm: a run of stores through the write queue.
                b.li(val, layout::DEFAULT_SECRET ^ 0x3);
                b.li(idx, layout::VICTIM + 0x3C0);
                for w in 0..8i64 {
                    b.store(val, idx, w * 8);
                }
            }
        }
        // Sampling load on a cold 4K-aliasing page (assist + forward).
        b.alu_imm(AluOp::Shl, la, rounds, 12);
        b.alu_imm(AluOp::Add, la, la, layout::SCRATCH + 0x20_0000 + 0x3C0);
        b.load(out, la, 0);
        b.alu_imm(AluOp::And, out, out, 0xF);
        b.alu_imm(AluOp::Shl, dep, out, 6);
        b.alu(AluOp::Add, dep, rpr, dep);
        b.load(out, dep, 0); // transmit
    });
    emit_decoys(&mut b, p.decoy_ops, rng);
    emit_delay(&mut b, p.delay_ops);
    b.halt();
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn run(p: &Program) -> Cpu {
        let mut cpu = tenant_core(&CpuConfig::default());
        let res = cpu.run(p, 500_000);
        assert!(res.halted, "kernel {} must halt", p.name());
        cpu
    }

    #[test]
    fn meltdown_faults_and_leaks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let prog = meltdown(&KernelParams::default(), &mut rng);
        let cpu = run(&prog);
        assert!(cpu.stats().faults_raised >= 1);
        assert!(cpu.stats().faults_deferred_with_data >= 1);
        let line = layout::PROBE + 5 * 64;
        assert!(
            cpu.dcache().contains(line) || cpu.l2().contains(line),
            "Meltdown probe footprint missing"
        );
    }

    #[test]
    fn lvi_injects_through_store_buffer() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let prog = lvi(&KernelParams::default(), &mut rng);
        let cpu = run(&prog);
        assert!(cpu.stats().lsq_false_forwards >= 1, "no LVI injection");
        let line = layout::PROBE + (layout::DEFAULT_SECRET ^ 0x1) * 64;
        assert!(
            cpu.dcache().contains(line) || cpu.l2().contains(line),
            "LVI poisoned footprint missing"
        );
    }

    #[test]
    fn fallout_samples_victim_store() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let prog = fallout(&KernelParams::default(), &mut rng);
        let cpu = run(&prog);
        assert!(
            cpu.stats().lsq_false_forwards >= 1,
            "no store-buffer sample"
        );
        let line = layout::PROBE2 + (layout::DEFAULT_SECRET ^ 0x2) * 64;
        assert!(
            cpu.dcache().contains(line) || cpu.l2().contains(line),
            "Fallout footprint missing"
        );
    }

    #[test]
    fn medusa_variants_run_and_forward() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for variant in [
            MedusaVariant::CacheIndexing,
            MedusaVariant::UnalignedStoreLoad,
            MedusaVariant::ShadowRepMov,
        ] {
            let prog = medusa(variant, &KernelParams::default(), &mut rng);
            let cpu = run(&prog);
            assert!(
                cpu.stats().lsq_false_forwards >= 1,
                "{variant:?}: no assist forwarding"
            );
        }
    }

    #[test]
    fn medusa_variants_have_distinct_store_mixes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let p = KernelParams::default();
        let v3 = medusa(MedusaVariant::ShadowRepMov, &p, &mut rng);
        let v2 = medusa(MedusaVariant::UnalignedStoreLoad, &p, &mut rng);
        let c3 = run(&v3).stats().commit_stores;
        let c2 = run(&v2).stats().commit_stores;
        assert!(c3 > c2, "rep-mov should store more: {c3} vs {c2}");
    }
}
