//! Commit: InvisiSpec exposure, commit-time resolution of returns,
//! architectural faults, and in-order retirement.

use evax_dram::AccessKind;

use super::{Cpu, EState, CODE_BASE, EV_COMPLETE};
use crate::isa::{Op, Program, Reg};

impl Cpu {
    pub(super) fn commit_stage(&mut self, program: &Program) {
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.front() else { break };
            if head.state != EState::Done {
                break;
            }
            // An assisted load may not retire until its translation resolves
            // and the replay has fixed its value.
            if head.assisted && !head.assist_handled {
                break;
            }
            let head_op = head.op;
            let head_seq = head.seq;
            let head_pc = head.pc;
            let head_fault = head.fault;
            let head_resolved = head.resolved;
            let head_predicted_next = head.predicted_next;
            let head_invisible = head.invisible;
            let head_exposed = head.exposed;
            let head_eff_addr = head.eff_addr;
            // InvisiSpec exposure: an invisible load must become visible
            // (validate + fill) before it can commit.
            if head_invisible && !head_exposed {
                let addr = head_eff_addr.expect("load has addr");
                let seq = head_seq;
                let was_cached = self.dcache.contains(addr);
                self.dcache.access(addr, false, self.cycle);
                if !was_cached {
                    if !self.l2.contains(addr) {
                        let resp = self.dram.access(addr, AccessKind::Read, self.cycle);
                        self.apply_flips_response(&resp);
                    }
                    self.l2.fill(addr, false, false);
                    self.dcache.fill(addr, false, false);
                    // Exposure stalls commit.
                    let done_at = self.cycle + self.cfg.invisispec_expose_latency as u64;
                    let e = self.rob.front_mut().expect("head exists");
                    debug_assert_eq!(e.seq, seq);
                    e.exposed = true;
                    e.state = EState::Executing;
                    e.done_at = done_at;
                    self.stats.commit_expose_stall_cycles +=
                        self.cfg.invisispec_expose_latency as u64;
                    // The head regressed from Done to Executing — the only
                    // such transition in the pipeline. Restore the occupancy
                    // counter, re-arm its completion, re-block any Waiting
                    // consumer, and pull the clean watermark behind it.
                    self.num_not_done += 1;
                    self.schedule_event(done_at, seq, EV_COMPLETE);
                    self.reblock_consumers_of(seq);
                    self.clean_watermark = self.clean_watermark.min(seq);
                    break;
                }
                self.rob.front_mut().expect("head").exposed = true;
            }

            // Ret resolves at commit against the architectural return stack;
            // IRet against the interrupt controller's latched return pc.
            if matches!(head_op, Op::Ret | Op::IRet) && !head_resolved {
                let is_ret = matches!(head_op, Op::Ret);
                let actual = if is_ret {
                    self.arch_ret_stack.pop().unwrap_or(head_pc + 1)
                } else {
                    self.iret_target(head_pc)
                };
                let head_mut = self.rob.front_mut().expect("head");
                head_mut.resolved = true;
                // Record the actual return target as the (otherwise unused)
                // result so commit can track the architectural pc.
                head_mut.result = actual as u64;
                self.unresolved_ctrl.retain(|&s| s != head_seq);
                if head_predicted_next != actual {
                    self.stats.iew_branch_mispredicts += 1;
                    if is_ret {
                        self.stats.bp_ras_incorrect += 1;
                    }
                    // Commit the return itself, then squash everything
                    // younger (the wrong path fetched past it).
                    self.finish_commit_of_head();
                    self.squash_younger_than(head_seq, actual);
                    continue;
                }
            }

            // Faults are architectural only at commit.
            if head_fault {
                self.stats.faults_raised += 1;
                let handler = program.fault_handler().unwrap_or(head_pc + 1);
                self.arch_pc = handler;
                // Squash everything *including* the faulting instruction
                // and redirect to the handler.
                self.squash_from(head_seq, handler);
                debug_assert!(self.rob.is_empty(), "fault squash empties the ROB");
                continue;
            }

            self.finish_commit_of_head();
            if self.halted {
                break;
            }
        }
    }

    /// Retires the ROB head architecturally.
    fn finish_commit_of_head(&mut self) {
        let e = self.rob.pop_front().expect("head exists");
        self.note_removed(&e);
        match e.op {
            Op::Load { .. } => {
                debug_assert_eq!(self.load_seqs.front(), Some(&e.seq));
                self.load_seqs.pop_front();
            }
            Op::Store { .. } => {
                debug_assert_eq!(self.store_seqs.front(), Some(&e.seq));
                self.store_seqs.pop_front();
            }
            _ => {}
        }
        self.stats.committed_insts += 1;
        self.committed_since_sample += 1;
        // Track the architectural pc: where the next committed instruction
        // executes. Control ops stashed their resolved target in `result`.
        self.arch_pc = match e.op {
            Op::Branch { target, .. } => {
                if e.result != 0 {
                    target
                } else {
                    e.pc + 1
                }
            }
            Op::Jmp { target } | Op::Call { target } => target,
            Op::JmpInd { .. } | Op::Ret | Op::IRet => e.result as usize,
            _ => e.pc + 1,
        };
        if let Some(dst) = e.op.dst() {
            if dst != Reg::ZERO {
                self.arch_regs[dst.index()] = e.result;
                self.stats.rename_committed_maps += 1;
            }
            if self.reg_producer[dst.index()] == Some(e.seq) {
                self.reg_producer[dst.index()] = None;
            }
        }
        match e.op {
            Op::Store { .. } => {
                let addr = e.eff_addr.expect("store executed");
                let data = e.store_data.expect("store data");
                self.mem.write_u64(addr, data);
                // D-cache write access at commit (write-allocate).
                if !self.dcache.access(addr, true, self.cycle).hit {
                    self.l2_demand_fill(addr, true);
                    self.dcache.fill(addr, true, false);
                }
                self.stats.commit_stores += 1;
            }
            Op::Load { .. } => {
                self.stats.commit_loads += 1;
            }
            Op::Branch { .. } | Op::Jmp { .. } | Op::JmpInd { .. } => {
                self.stats.commit_branches += 1;
            }
            Op::Call { .. } => {
                self.stats.commit_branches += 1;
                self.arch_ret_stack.push(e.pc + 1);
            }
            Op::Ret | Op::IRet => {
                // The return stack / service-routine state was already
                // updated during resolution.
                self.stats.commit_branches += 1;
            }
            Op::Fence | Op::RdCycle { .. } => {
                self.stats.commit_membars += 1;
            }
            Op::Syscall => {
                self.stats.commit_membars += 1;
                self.stats.syscalls += 1;
                self.kernel_noise();
            }
            Op::Halt => {
                self.halted = true;
            }
            _ => {}
        }
    }

    /// Models the cache/TLB noise of a kernel crossing (paper §VIII-D: "the
    /// syscall itself adds noise to the attack sample").
    pub(super) fn kernel_noise(&mut self) {
        let base = self.cfg.kernel_base;
        self.rng_state ^= self.rng_state << 13;
        self.rng_state ^= self.rng_state >> 7;
        let mut r = self.rng_state;
        for _ in 0..4 {
            r ^= r << 17;
            r ^= r >> 11;
            let addr = base + (r % 64) * 64;
            if !self.dcache.contains(addr) {
                self.dcache.fill(addr, false, false);
            }
            let iaddr = CODE_BASE + 0x10_0000 + (r % 32) * 64;
            if !self.icache.contains(iaddr) {
                self.icache.fill(iaddr, false, false);
            }
        }
    }
}
