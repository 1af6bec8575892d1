//! Execute: instruction semantics, loads through the LSQ and the cache
//! hierarchy, the stride prefetcher and memory-order checks. The LSQ
//! searches here walk the bounded load/store seq lists; `scan` holds their
//! whole-ROB reference forms.

use evax_dram::AccessKind;

use super::{aliases_4k, trace_enabled, Cpu, EState, EV_ASSIST_REPLAY, EV_COMPLETE};
use crate::config::{MitigationMode, SchedulerKind};
use crate::isa::{Op, Reg};

impl Cpu {
    pub(super) fn execute_entry(&mut self, idx: usize) {
        let seq = self.rob[idx].seq;
        let pc = self.rob[idx].pc;
        let op = self.rob[idx].op;
        if trace_enabled() {
            eprintln!("[{}] EXEC seq={} pc={} {:?}", self.cycle, seq, pc, op);
        }
        self.stats.iew_executed_insts += 1;
        let mut latency: u32 = 1;
        let mut result: u64 = 0;
        match op {
            // Fences are counted at commit.
            Op::Nop | Op::Halt | Op::Jmp { .. } | Op::Call { .. } | Op::Fence => {}
            Op::Li { imm, .. } => result = imm,
            Op::Alu {
                op: a,
                a: ra,
                b: rb,
                ..
            } => {
                let va = self.operand(idx, ra);
                let vb = self.operand(idx, rb);
                result = a.eval(va, vb);
                latency = a.latency();
            }
            Op::AluImm {
                op: a, a: ra, imm, ..
            } => {
                let va = self.operand(idx, ra);
                result = a.eval(va, imm);
                latency = a.latency();
            }
            Op::RdCycle { .. } => {
                result = self.cycle;
            }
            Op::RdRand { .. } => {
                // Shared unit: queue behind any in-flight RDRAND.
                let start = self.cycle.max(self.rdrand_busy_until);
                let wait = (start - self.cycle) as u32;
                self.stats.rdrand_contention_cycles += wait as u64;
                self.rdrand_busy_until = start + self.cfg.rdrand_latency as u64;
                latency = wait + self.cfg.rdrand_latency;
                self.stats.rdrand_ops += 1;
                result = self.next_rdrand();
            }
            Op::Syscall => {
                latency = self.cfg.syscall_latency;
            }
            Op::Branch { cond, a, b, target } => {
                let va = self.operand(idx, a);
                let vb = self.operand(idx, b);
                let taken = cond.eval(va, vb);
                result = taken as u64;
                let actual_next = if taken { target } else { pc + 1 };
                self.rob[idx].result = result;
                self.resolve_control(idx, actual_next, taken);
            }
            Op::JmpInd { base } => {
                let target = self.operand(idx, base) as usize;
                // Record the resolved target as the (otherwise unused)
                // result so commit can track the architectural pc.
                result = target as u64;
                self.btb.update(pc, target);
                self.resolve_control(idx, target, true);
            }
            Op::Ret | Op::IRet => {
                // Resolved at commit (Ret against the architectural return
                // stack, IRet against the interrupt controller).
            }
            Op::Load { base, offset, .. } => {
                let addr = self.operand(idx, base).wrapping_add(offset as u64);
                let (value, lat) = self.execute_load(idx, addr);
                result = value;
                latency = lat;
            }
            Op::Store { src, base, offset } => {
                let addr = self.operand(idx, base).wrapping_add(offset as u64);
                let data = self.operand(idx, src);
                self.rob[idx].eff_addr = Some(addr);
                self.rob[idx].store_data = Some(data);
                self.stats.iew_exec_store_insts += 1;
                self.check_order_violation(idx, addr);
                if self.mem.is_privileged(addr) {
                    self.rob[idx].fault = true;
                }
            }
            Op::Flush { base, offset } => {
                let addr = self.operand(idx, base).wrapping_add(offset as u64);
                self.rob[idx].eff_addr = Some(addr);
                self.dcache.flush_line(addr);
                self.l2.flush_line(addr);
                latency = 4;
            }
            Op::Prefetch { base, offset } => {
                let addr = self.operand(idx, base).wrapping_add(offset as u64);
                self.rob[idx].eff_addr = Some(addr);
                // Prefetches never fault (Meltdown step 2 relies on this),
                // and the DTLB walk is off the critical path: nothing is
                // charged to the core.
                let _ = self.dtlb.access(addr, false);
                if !self.dcache.contains(addr) {
                    if !self.l2.access(addr, false, self.cycle).hit {
                        let resp = self.dram.access(addr, AccessKind::Read, self.cycle);
                        self.apply_flips_response(&resp);
                        self.l2.fill(addr, false, true);
                    }
                    self.dcache.fill(addr, false, true);
                }
            }
        }
        {
            let e = &mut self.rob[idx];
            e.result = result;
            e.state = EState::Executing;
            e.done_at = self.cycle + latency as u64;
            if latency <= 1 {
                e.state = EState::Done;
                e.done_at = self.cycle;
            }
        }
        debug_assert!(self.num_waiting > 0);
        self.num_waiting -= 1;
        if self.rob[idx].state == EState::Done {
            self.entry_done(seq);
        } else {
            self.schedule_event(self.rob[idx].done_at, seq, EV_COMPLETE);
        }
        if self.rob[idx].assisted && !self.rob[idx].assist_handled {
            // The replay fires on the first cycle the entry is both Done
            // and past `assist_replay_at` — exactly when the scan's
            // complete sweep would have fired it.
            let at = self.rob[idx].done_at.max(self.rob[idx].assist_replay_at);
            self.schedule_event(at, seq, EV_ASSIST_REPLAY);
        }
    }

    /// Source `r` of the issued entry at `idx`; issue guarantees it is ready.
    fn operand(&self, idx: usize, r: Reg) -> u64 {
        self.read_operand(idx, r).expect("ready")
    }

    /// One xorshift64* step of the RDRAND unit's deterministic generator.
    pub(super) fn next_rdrand(&mut self) -> u64 {
        self.rng_state ^= self.rng_state >> 12;
        self.rng_state ^= self.rng_state << 25;
        self.rng_state ^= self.rng_state >> 27;
        self.rng_state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Executes a load: store-to-load forwarding, TLB, privilege check,
    /// LVI-style assisted forwarding, and the cache hierarchy (visible or
    /// invisible).
    fn execute_load(&mut self, idx: usize, addr: u64) -> (u64, u32) {
        let seq = self.rob[idx].seq;
        if trace_enabled() {
            eprintln!(
                "[{}] LOAD seq={} pc={} addr={:#x}",
                self.cycle, seq, self.rob[idx].pc, addr
            );
        }
        self.rob[idx].eff_addr = Some(addr);
        self.rob[idx].executed_load = true;
        self.stats.iew_exec_load_insts += 1;
        let shadowed = self.oldest_unresolved_control_before(seq);
        if shadowed {
            self.stats.spec_loads_executed += 1;
        }
        let invisible = match self.mitigation {
            MitigationMode::InvisiSpecSpectre => shadowed,
            MitigationMode::InvisiSpecFuturistic => !self.all_older_done(seq),
            _ => false,
        };
        self.rob[idx].invisible = invisible;

        // --- store-to-load forwarding (exact 8-byte match) ---
        let forwarded = match self.sched {
            SchedulerKind::Scan => self.forwarding_store_scan(seq, addr),
            SchedulerKind::EventDriven => self.forwarding_store(seq, addr),
        };
        if let Some(v) = forwarded {
            self.stats.lsq_forw_loads += 1;
            return (v, 1);
        }

        // --- privilege check (Meltdown) ---
        let privileged = self.mem.is_privileged(addr);
        if privileged {
            self.rob[idx].fault = true;
            self.stats.faults_deferred_with_data += 1;
        }

        // --- translation ---
        let mut latency = 0u32;
        let tlb_hit = self.dtlb.access(addr, false);
        if !tlb_hit {
            latency += self.cfg.tlb_walk_latency;
            // Assisted translation + 4K-aliasing store buffer entry:
            // transiently forward the aliasing store's (wrong) value —
            // the LVI / Fallout injection surface.
            let alias = match self.sched {
                SchedulerKind::Scan => self.aliasing_store_scan(seq, addr),
                SchedulerKind::EventDriven => self.aliasing_store(seq, addr),
            };
            if let Some(injected) = alias {
                self.rob[idx].assisted = true;
                // The replay fires when the assisted translation resolves;
                // until then consumers run on the injected value — the LVI
                // transient window.
                self.rob[idx].assist_replay_at = self.cycle + self.cfg.tlb_walk_latency as u64;
                self.stats.lsq_false_forwards += 1;
                self.stats.lsq_forw_loads += 1;
                // The wrong value is available almost immediately; the
                // correct replay happens at completion.
                return (injected, 2);
            }
        }

        // --- cache hierarchy ---
        if invisible {
            // Probe latencies without mutating cache state.
            let lat = if self.dcache.contains(addr) {
                self.cfg.l1d.hit_latency
            } else if self.l2.contains(addr) {
                self.cfg.l1d.hit_latency + self.cfg.l2.hit_latency
            } else {
                self.cfg.l1d.hit_latency
                    + self.cfg.l2.hit_latency
                    + self.cfg.dram.t_rcd
                    + self.cfg.dram.t_cas
                    + self.cfg.dram.t_bus
            };
            latency += lat;
        } else {
            let acc = self.dcache.access(addr, false, self.cycle);
            if acc.mshr_stall {
                self.stats.lsq_cache_blocked_loads += 1;
                latency += 4;
            }
            if acc.hit {
                latency += acc.latency;
            } else {
                let miss_lat = self.l2_demand_fill(addr, false);
                self.dcache.fill(addr, false, false);
                self.dcache
                    .note_miss_latency(miss_lat as u64, self.cycle + miss_lat as u64);
                latency += acc.latency + miss_lat;
            }
        }
        if !invisible && self.cfg.stride_prefetcher {
            self.stride_prefetch(self.rob[idx].pc, addr);
        }
        let value = self.mem.read_u64(addr);
        (value, latency.max(1))
    }

    /// Store-to-load forwarding: the data of the youngest store older than
    /// `seq` to exactly `addr`, walking the in-flight store list.
    fn forwarding_store(&self, seq: u64, addr: u64) -> Option<u64> {
        let front = self.rob.front().expect("rob nonempty").seq;
        self.store_seqs
            .iter()
            .take_while(|&&s| s < seq)
            .map(|&s| &self.rob[(s - front) as usize])
            .filter(|e| e.eff_addr == Some(addr))
            .filter_map(|e| e.store_data)
            .last()
    }

    /// 4K-alias injection: the data of the youngest store older than `seq`
    /// whose address matches `addr` in the low 12 bits but not exactly,
    /// walking the in-flight store list back to front.
    fn aliasing_store(&self, seq: u64, addr: u64) -> Option<u64> {
        let front = self.rob.front().expect("rob nonempty").seq;
        self.store_seqs
            .iter()
            .rev()
            .filter(|&&s| s < seq)
            .map(|&s| &self.rob[(s - front) as usize])
            .find(|e| e.store_data.is_some() && e.eff_addr.is_some_and(|a| aliases_4k(a, addr)))
            .and_then(|e| e.store_data)
    }

    /// Classic per-pc stride prefetcher: after two consecutive accesses with
    /// the same stride, fetch the next line ahead into L1D. Prefetches are
    /// visible cache state — which is exactly why hardware prefetchers are
    /// themselves a side-channel surface.
    pub(super) fn stride_prefetch(&mut self, pc: usize, addr: u64) {
        let entry = &mut self.stride_table[pc % 256];
        let (last, stride, conf) = *entry;
        let new_stride = addr as i64 - last as i64;
        if new_stride == stride && new_stride != 0 {
            *entry = (addr, stride, (conf + 1).min(3));
        } else {
            *entry = (addr, new_stride, 0);
        }
        let (_, stride, conf) = *entry;
        if conf >= 2 {
            let target = addr.wrapping_add((stride * 2) as u64);
            if !self.mem.is_privileged(target) {
                self.prefetch_line(target);
            }
        }
    }

    /// A store's address became known: any younger load already executed to
    /// the same address read stale data — memory-order violation.
    fn check_order_violation(&mut self, store_idx: usize, addr: u64) {
        let store_seq = self.rob[store_idx].seq;
        let violator = match self.sched {
            SchedulerKind::Scan => self.order_violator_scan(store_seq, addr),
            SchedulerKind::EventDriven => self.order_violator(store_seq, addr),
        };
        if let Some((vseq, vpc)) = violator {
            self.stats.iew_mem_order_violations += 1;
            self.stats.lsq_ignored_responses += 1;
            self.squash_younger_than(vseq - 1, vpc);
        }
    }

    /// The oldest load younger than `store_seq` that already executed to
    /// `addr`, as `(seq, pc)`, walking the in-flight load list.
    fn order_violator(&self, store_seq: u64, addr: u64) -> Option<(u64, usize)> {
        let front = self.rob.front().expect("rob nonempty").seq;
        self.load_seqs
            .iter()
            .filter(|&&l| l > store_seq)
            .map(|&l| &self.rob[(l - front) as usize])
            .find(|e| e.executed_load && e.state != EState::Waiting && e.eff_addr == Some(addr))
            .map(|e| (e.seq, e.pc))
    }
}
