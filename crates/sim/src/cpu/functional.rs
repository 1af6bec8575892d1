//! The functional fast-forward path: architectural execution with
//! touch-warmed caches, TLBs and predictors, and no pipeline.

use super::sampling::cycle_ceiling;
use super::{Cpu, CODE_BASE, INSTR_BYTES};
use crate::isa::{Op, Program, Reg};

impl Cpu {
    /// Retires up to `max_instrs` instructions on the **functional** path:
    /// architectural state (registers, memory, return stack, RNG, arch pc)
    /// is updated exactly as the detailed core would at commit, while
    /// caches, TLBs, the branch predictor, BTB, RAS and DRAM are warmed by
    /// touch — no out-of-order pipeline, no speculation, no wrong-path
    /// execution. Cycle accounting is approximate (one cycle per
    /// instruction plus memory latencies).
    ///
    /// A load or store to a privileged address faults as it does at
    /// detailed commit: it retires nothing, bumps `faults_raised`, and
    /// control moves to the fault handler (the next instruction if none).
    ///
    /// The core is quiesced first (in-flight speculative work discarded).
    /// Running off the end of the program stops without halting; committing
    /// `Halt` sets the halted flag; the sampled cursor's cycle ceiling ends
    /// a run that stops retiring (a fault handler that faults forever).
    /// Returns the number of instructions retired.
    ///
    /// `stats.committed_insts` advances (so instruction budgets account for
    /// warm-up) but `committed_since_sample` does not: sampling windows
    /// never close inside a fast-forward phase.
    pub fn fast_forward(&mut self, program: &Program, max_instrs: u64) -> u64 {
        self.quiesce();
        let iline_shift = self.cfg.l1i.line.trailing_zeros();
        let mut last_iline = u64::MAX;
        let mut retired = 0u64;
        let start_cycle = self.cycle;
        let cycle_budget = cycle_ceiling(max_instrs);
        while retired < max_instrs && !self.halted && self.cycle - start_cycle < cycle_budget {
            if self.dev.is_some() {
                self.device_tick_functional(program);
            }
            let pc = self.arch_pc;
            let Some(op) = program.fetch(pc) else {
                // Ran off the program: architecturally there is nothing
                // left to execute, but the program did not halt.
                break;
            };
            let mut extra = 0u64;
            // I-side touch, once per line transition.
            let iaddr = CODE_BASE + pc as u64 * INSTR_BYTES;
            let iline = iaddr >> iline_shift;
            if iline != last_iline {
                last_iline = iline;
                extra += self.fetch_line_latency(iaddr) as u64;
            }
            let mut next_pc = pc + 1;
            let mut fault = false;
            match op {
                Op::Nop | Op::Fence => {}
                Op::Li { dst, imm } => self.write_arch_reg(dst, imm),
                Op::Alu {
                    op: a,
                    dst,
                    a: ra,
                    b: rb,
                } => {
                    let v = a.eval(self.arch_regs[ra.index()], self.arch_regs[rb.index()]);
                    self.write_arch_reg(dst, v);
                    extra += a.latency() as u64 - 1;
                }
                Op::AluImm {
                    op: a,
                    dst,
                    a: ra,
                    imm,
                } => {
                    let v = a.eval(self.arch_regs[ra.index()], imm);
                    self.write_arch_reg(dst, v);
                    extra += a.latency() as u64 - 1;
                }
                Op::RdCycle { dst } => {
                    let c = self.cycle;
                    self.write_arch_reg(dst, c);
                }
                Op::RdRand { dst } => {
                    let v = self.next_rdrand();
                    self.write_arch_reg(dst, v);
                    extra += self.cfg.rdrand_latency as u64;
                }
                Op::Syscall => {
                    self.kernel_noise();
                    extra += self.cfg.syscall_latency as u64;
                }
                Op::Branch { cond, a, b, target } => {
                    let taken = cond.eval(self.arch_regs[a.index()], self.arch_regs[b.index()]);
                    // Warm the direction predictor exactly as a resolved
                    // branch would train it.
                    let p = self.bp.predict(pc);
                    self.bp.update(pc, p, taken);
                    if taken {
                        next_pc = target;
                    }
                }
                Op::Jmp { target } => next_pc = target,
                Op::JmpInd { base } => {
                    let target = self.arch_regs[base.index()] as usize;
                    self.btb.update(pc, target);
                    next_pc = target;
                }
                Op::Call { target } => {
                    self.ras.push(pc + 1);
                    self.arch_ret_stack.push(pc + 1);
                    next_pc = target;
                }
                Op::Ret => {
                    let _ = self.ras.pop();
                    next_pc = self.arch_ret_stack.pop().unwrap_or(pc + 1);
                }
                Op::IRet => next_pc = self.iret_target(pc),
                Op::Load { dst, base, offset } => {
                    let addr = self.arch_regs[base.index()].wrapping_add(offset as u64);
                    extra += self.touch_data(addr, false);
                    if self.cfg.stride_prefetcher {
                        self.stride_prefetch(pc, addr);
                    }
                    fault = self.mem.is_privileged(addr);
                    if !fault {
                        let v = self.mem.read_u64(addr);
                        self.write_arch_reg(dst, v);
                    }
                }
                Op::Store { src, base, offset } => {
                    let addr = self.arch_regs[base.index()].wrapping_add(offset as u64);
                    fault = self.mem.is_privileged(addr);
                    if !fault {
                        let data = self.arch_regs[src.index()];
                        self.mem.write_u64(addr, data);
                        extra += self.touch_data(addr, true);
                    }
                }
                Op::Flush { base, offset } => {
                    let addr = self.arch_regs[base.index()].wrapping_add(offset as u64);
                    self.dcache.flush_line(addr);
                    self.l2.flush_line(addr);
                    extra += 3;
                }
                Op::Prefetch { base, offset } => {
                    let addr = self.arch_regs[base.index()].wrapping_add(offset as u64);
                    // Prefetches never fault; the DTLB is touched and the
                    // line filled like the stride prefetcher's.
                    let _ = self.dtlb.access(addr, false);
                    self.prefetch_line(addr);
                }
                Op::Halt => {
                    self.halted = true;
                }
            }
            self.cycle += 1 + extra;
            self.stats.cycles += 1 + extra;
            if fault {
                self.stats.faults_raised += 1;
                self.arch_pc = program.fault_handler().unwrap_or(pc + 1);
            } else {
                self.arch_pc = next_pc;
                self.stats.committed_insts += 1;
                retired += 1;
            }
        }
        // Fetch resumes from the new architectural pc if a detailed phase
        // follows.
        self.fetch_pc = self.arch_pc;
        self.fetch_stall_until = self.cycle;
        retired
    }

    /// Architectural register write honoring the hard-wired zero register.
    fn write_arch_reg(&mut self, dst: Reg, value: u64) {
        if dst != Reg::ZERO {
            self.arch_regs[dst.index()] = value;
        }
    }

    /// D-side touch for the fast-forward path: DTLB, then the
    /// L1D → L2 → DRAM chain with fills — the same footprint a committed
    /// access leaves, minus the out-of-order timing. Returns latency.
    fn touch_data(&mut self, addr: u64, write: bool) -> u64 {
        let mut lat = 0u64;
        if !self.dtlb.access(addr, false) {
            lat += self.cfg.tlb_walk_latency as u64;
        }
        let acc = self.dcache.access(addr, write, self.cycle);
        if acc.hit {
            lat += acc.latency as u64;
        } else {
            let miss_lat = self.l2_demand_fill(addr, write);
            self.dcache.fill(addr, write, false);
            lat += (acc.latency + miss_lat) as u64;
        }
        lat
    }
}
