//! Fetch: the I-side access, branch/return/indirect-target prediction and
//! the fetch buffer.

use super::{Cpu, FetchedInstr, CODE_BASE, INSTR_BYTES};
use crate::isa::{Op, Program};

impl Cpu {
    pub(super) fn fetch_stage(&mut self, program: &Program) {
        if self.fetch_parked {
            self.stats.fetch_idle_cycles += 1;
            return;
        }
        if self.cycle < self.fetch_stall_until {
            self.stats.fetch_icache_stall_cycles += 1;
            return;
        }
        if self.fetch_buffer.len() >= 2 * self.cfg.fetch_width {
            self.stats.fetch_blocked_cycles += 1;
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            let pc = self.fetch_pc;
            let Some(op) = program.fetch(pc) else {
                // Ran off the program (wrong path): park until a squash
                // redirects us.
                self.fetch_parked = true;
                break;
            };
            // I-side memory access for the line containing this pc.
            let iaddr = CODE_BASE + pc as u64 * INSTR_BYTES;
            let ilat = self.fetch_line_latency(iaddr);
            if ilat > 0 {
                // A miss stalls fetch until the line arrives; the line is
                // filled now, so the retry after the stall hits.
                self.fetch_stall_until = self.cycle + ilat as u64;
                break;
            }
            self.stats.fetch_insts += 1;

            let mut predicted_next = pc + 1;
            let mut dir_pred = None;
            let mut used_ras = false;
            let mut ras_snap = None;
            match op {
                Op::Branch { target, .. } => {
                    self.stats.fetch_branches += 1;
                    let p = self.bp.predict(pc);
                    self.stats.bp_cond_predicted += 1;
                    if p.taken {
                        predicted_next = target;
                        self.stats.fetch_predicted_taken += 1;
                    }
                    dir_pred = Some(p);
                    ras_snap = Some(self.ras.snapshot());
                }
                Op::Jmp { target } => {
                    self.stats.fetch_branches += 1;
                    predicted_next = target;
                }
                Op::Call { target } => {
                    self.stats.fetch_branches += 1;
                    predicted_next = target;
                    self.ras.push(pc + 1);
                    ras_snap = Some(self.ras.snapshot());
                }
                Op::Ret => {
                    self.stats.fetch_branches += 1;
                    if let Some(addr) = self.ras.pop() {
                        predicted_next = addr;
                        used_ras = true;
                        self.stats.bp_used_ras += 1;
                    }
                    ras_snap = Some(self.ras.snapshot());
                }
                Op::JmpInd { .. } => {
                    self.stats.fetch_branches += 1;
                    self.stats.bp_btb_lookups += 1;
                    // No prediction falls through (and almost surely
                    // squashes at resolve).
                    if let Some(t) = self.btb.lookup(pc) {
                        self.stats.bp_btb_hits += 1;
                        predicted_next = t;
                    }
                    ras_snap = Some(self.ras.snapshot());
                }
                Op::IRet => {
                    self.stats.fetch_branches += 1;
                    // No RAS involvement: the target is the interrupt
                    // controller's latched return pc, resolved at commit.
                    // Predict fall-through (almost surely wrong — the
                    // transient window behind an interrupt return).
                }
                Op::Halt => {
                    // Stop fetching past a halt; commit decides if it's real.
                    self.fetch_parked = true;
                }
                _ => {}
            }

            self.fetch_buffer.push_back(FetchedInstr {
                pc,
                op,
                ready_at: self.cycle + self.cfg.frontend_depth as u64,
                predicted_next,
                dir_pred,
                used_ras,
                ras_snap,
            });
            self.fetch_pc = predicted_next;
            if self.fetch_parked || op.is_control() {
                // One control transfer per fetch group keeps things simple.
                break;
            }
        }
    }

    /// I-cache access for a fetch; returns stall cycles beyond the pipelined
    /// hit latency.
    pub(super) fn fetch_line_latency(&mut self, iaddr: u64) -> u32 {
        let mut extra = 0u32;
        if !self.itlb.access(iaddr, false) {
            extra += self.cfg.tlb_walk_latency;
        }
        let acc = self.icache.access(iaddr, false, self.cycle);
        if acc.hit {
            return extra;
        }
        let miss_lat = self.l2_demand_fill(iaddr, false);
        self.icache.fill(iaddr, false, false);
        self.icache
            .note_miss_latency(miss_lat as u64, self.cycle + miss_lat as u64);
        extra + miss_lat
    }
}
