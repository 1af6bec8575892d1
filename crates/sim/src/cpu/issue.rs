//! Issue and completion for the event-driven scheduler, plus what both
//! schedulers share: operand reads, the clean-older query, issue gating,
//! the assisted-load replay, control resolution and squash. The Scan
//! reference loops that call the shared parts live in `scan`.

use std::cmp::Reverse;

use super::{trace_enabled, Cpu, EState, EDGE_NONE, EV_ASSIST_REPLAY, EV_COMPLETE};
use crate::config::{MitigationMode, SchedulerKind};
use crate::isa::{Op, Reg};

/// Memory ops (loads, stores, flushes, prefetches) issued per cycle.
const MEM_PORTS: usize = 4;

impl Cpu {
    /// Reads the current value of source `r` of the entry at `idx`, using the
    /// producer captured at rename time. ROB seqs are contiguous, so the
    /// producer lookup is O(1). Returns `None` while the producer is in
    /// flight; a committed producer's value comes from the architectural
    /// file (in-order commit guarantees it is the right version).
    pub(super) fn read_operand(&self, idx: usize, r: Reg) -> Option<u64> {
        if r == Reg::ZERO {
            return Some(0);
        }
        let e = &self.rob[idx];
        for d in e.deps.iter().flatten() {
            if d.0 == r {
                let front = self.rob.front().expect("rob nonempty").seq;
                if d.1 < front {
                    return Some(self.arch_regs[r.index()]);
                }
                let pe = &self.rob[(d.1 - front) as usize];
                debug_assert_eq!(pe.seq, d.1, "ROB seq contiguity violated");
                return if pe.state == EState::Done {
                    Some(pe.result)
                } else {
                    None
                };
            }
        }
        Some(self.arch_regs[r.index()])
    }

    pub(super) fn operands_ready(&self, idx: usize) -> bool {
        let front = self.rob.front().expect("rob nonempty").seq;
        self.rob[idx].deps.iter().flatten().all(|&(_, pseq)| {
            pseq < front || self.rob[(pseq - front) as usize].state == EState::Done
        })
    }

    /// `true` if an unresolved control-flow instruction older than `seq` is
    /// in flight (the speculative shadow).
    pub(super) fn oldest_unresolved_control_before(&self, seq: u64) -> bool {
        self.unresolved_ctrl.first().is_some_and(|&s| s < seq)
    }

    /// `true` if every instruction older than `seq` has finished executing
    /// *with a clean outcome*: an entry that is "done" but carries a pending
    /// fault or an unresolved assist will squash later — for serialization
    /// and Futuristic-model gating it does not count as completed (this is
    /// what lets fencing/InvisiSpec close the Meltdown/LVI windows).
    pub(super) fn all_older_done(&mut self, seq: u64) -> bool {
        match self.sched {
            SchedulerKind::Scan => self.all_older_done_scan(seq),
            SchedulerKind::EventDriven => {
                let r = self.all_older_done_watermark(seq);
                debug_assert_eq!(r, self.all_older_done_scan(seq));
                r
            }
        }
    }

    /// Incremental form of `all_older_done_scan`: the watermark only ever
    /// has to advance over each entry once (amortized O(1)); squash and
    /// InvisiSpec exposure clamp it back when an entry regresses.
    fn all_older_done_watermark(&mut self, seq: u64) -> bool {
        let Some(front) = self.rob.front().map(|e| e.seq) else {
            return true;
        };
        if self.clean_watermark < front {
            self.clean_watermark = front;
        }
        let end = front + self.rob.len() as u64;
        while self.clean_watermark < end {
            let e = &self.rob[(self.clean_watermark - front) as usize];
            if e.state != EState::Done || e.fault || (e.assisted && !e.assist_handled) {
                break;
            }
            self.clean_watermark += 1;
        }
        self.clean_watermark >= seq
    }

    /// Issue gating, in the reference order: serializing ops wait for every
    /// older op to finish cleanly; loads need a free memory port and pass
    /// the fence mitigation; stores, flushes and prefetches need a free
    /// port. `mem_issued` counts the ports already taken this cycle.
    pub(super) fn may_issue(&mut self, seq: u64, op: Op, mem_issued: usize) -> bool {
        if op.is_serializing() && !self.all_older_done(seq) {
            return false;
        }
        match op {
            Op::Load { .. } => {
                if mem_issued >= MEM_PORTS {
                    return false;
                }
                match self.mitigation {
                    MitigationMode::FenceSpectre => !self.oldest_unresolved_control_before(seq),
                    MitigationMode::FenceFuturistic => self.all_older_done(seq),
                    _ => true,
                }
            }
            Op::Store { .. } | Op::Flush { .. } | Op::Prefetch { .. } => mem_issued < MEM_PORTS,
            _ => true,
        }
    }

    /// Executes the entry at `idx` once gating passed, taking a memory port
    /// for memory ops.
    pub(super) fn issue_entry(&mut self, idx: usize, op: Op, mem_issued: &mut usize) {
        self.execute_entry(idx);
        if op.is_memory() {
            *mem_issued += 1;
        }
        self.stats.iq_issued_insts += 1;
    }

    /// Event-driven issue: pop ready candidates in seq order (identical to
    /// the scan's index order over eligible entries), validate lazily, and
    /// apply the scan scheduler's gating. Candidates rejected by *gating*
    /// (ports, serialization, fencing) stay ready and are re-queued for the
    /// next cycle; stale candidates (squashed, already executed, or
    /// re-blocked by exposure) are dropped.
    pub(super) fn issue_stage_event(&mut self) {
        // No execute happens when nothing issues, so `num_waiting` at entry
        // equals the scan's "encountered a Waiting entry" flag whenever the
        // stall counter condition (issued == 0) can fire.
        let had_waiting = self.num_waiting > 0;
        let mut issued = 0usize;
        // Same initial port budget as the scan reference: a DMA burst this
        // cycle steals one of the four memory ports.
        let mut mem_issued = usize::from(self.dma_stole_port);
        debug_assert!(self.ready_skipped.is_empty());
        let mut last_popped: Option<u64> = None;
        while issued < self.cfg.issue_width {
            let Some(Reverse(seq)) = self.ready.pop() else {
                break;
            };
            // Duplicate pushes of one seq pop back-to-back; skip repeats.
            if last_popped == Some(seq) {
                continue;
            }
            last_popped = Some(seq);
            let Some(idx) = self.rob_index_of(seq) else {
                continue;
            };
            if self.rob[idx].state != EState::Waiting || self.deps_pending[self.slot(seq)] != 0 {
                continue;
            }
            debug_assert!(self.operands_ready(idx));
            let op = self.rob[idx].op;
            if !self.may_issue(seq, op, mem_issued) {
                self.ready_skipped.push(seq);
                continue;
            }
            self.issue_entry(idx, op, &mut mem_issued);
            issued += 1;
        }
        // Gated candidates stay ready next cycle. Any squash during the
        // loop kept them: an executing entry's squash keeps seqs <= its
        // own, and every skipped seq popped before (hence below) it.
        while let Some(s) = self.ready_skipped.pop() {
            self.push_ready(s);
        }
        if had_waiting && issued == 0 {
            self.stats.iq_operand_stall_cycles += 1;
        }
    }

    /// Event-driven completion: pop due events in `(cycle, seq, kind)`
    /// order — exactly the order the scan sweep observes them (seq order,
    /// completion before replay for one entry) — and validate each against
    /// the entry's current state, so events orphaned by squash or seq reuse
    /// are dropped.
    pub(super) fn complete_stage_event(&mut self) {
        while let Some(&Reverse((at, _, _))) = self.events.peek() {
            if at > self.cycle {
                break;
            }
            let Reverse((at, seq, kind)) = self.events.pop().expect("peeked");
            let Some(idx) = self.rob_index_of(seq) else {
                continue;
            };
            let e = &self.rob[idx];
            if kind == EV_COMPLETE {
                // `done_at` must still match: exposure reschedules the
                // completion, orphaning the original event.
                if e.state == EState::Executing && e.done_at == at {
                    self.rob[idx].state = EState::Done;
                    self.entry_done(seq);
                }
            } else {
                debug_assert_eq!(kind, EV_ASSIST_REPLAY);
                if e.state == EState::Done
                    && e.assisted
                    && !e.assist_handled
                    && e.done_at.max(e.assist_replay_at) == at
                {
                    self.replay_assisted_load(idx);
                }
            }
        }
    }

    /// Assisted (LVI) load replay: the slow translation resolved, so the
    /// load takes its correct value and everything younger — which ran on
    /// the injected value — is squashed and refetched.
    pub(super) fn replay_assisted_load(&mut self, idx: usize) {
        self.rob[idx].assist_handled = true;
        let seq = self.rob[idx].seq;
        let pc = self.rob[idx].pc;
        let addr = self.rob[idx].eff_addr.expect("load has addr");
        let correct = self.mem.read_u64(addr);
        self.stats.lsq_rescheduled_loads += 1;
        self.stats.lsq_ignored_responses += 1;
        self.rob[idx].result = correct;
        self.squash_younger_than(seq, pc + 1);
    }

    /// Resolves a control instruction at `idx` with the actual next pc.
    pub(super) fn resolve_control(&mut self, idx: usize, actual_next: usize, taken: bool) {
        let e = &mut self.rob[idx];
        let seq = e.seq;
        let pc = e.pc;
        let predicted = e.predicted_next;
        let dir_pred = e.dir_pred;
        let used_ras = e.used_ras;
        e.resolved = true;
        self.unresolved_ctrl.retain(|&s| s != seq);
        // Train the direction predictor.
        if let Some(p) = dir_pred {
            self.bp.update(pc, p, taken);
            if p.taken != taken {
                self.stats.bp_cond_incorrect += 1;
                if p.taken {
                    self.stats.iew_predicted_taken_incorrect += 1;
                } else {
                    self.stats.iew_predicted_not_taken_incorrect += 1;
                }
            }
        }
        if predicted != actual_next {
            self.stats.iew_branch_mispredicts += 1;
            if matches!(self.rob[idx].op, Op::JmpInd { .. }) {
                self.stats.bp_indirect_mispredicted += 1;
            }
            if used_ras {
                self.stats.bp_ras_incorrect += 1;
            }
            // Restore the RAS to its post-this-instruction state.
            if let Some(snap) = self.rob[idx].ras_snap.clone() {
                self.ras.restore(&snap);
            }
            self.squash_younger_than(seq, actual_next);
        }
    }

    /// Squashes every instruction with `seq > keep_seq`, redirecting fetch to
    /// `new_pc`.
    pub(super) fn squash_younger_than(&mut self, keep_seq: u64, new_pc: usize) {
        self.squash_from(keep_seq + 1, new_pc);
    }

    /// Squashes every instruction with `seq >= first_squashed`, redirecting
    /// fetch to `new_pc`. The half-open form is the primitive: faults and
    /// IRQ delivery flush *from the head seq*, which the keep-based wrapper
    /// cannot express when the head is seq 0. With nothing in flight at or
    /// above `first_squashed` this reduces to a pure fetch redirect (plus
    /// the 2-cycle penalty).
    pub(super) fn squash_from(&mut self, first_squashed: u64, new_pc: usize) {
        if trace_enabled() {
            eprintln!(
                "[{}] SQUASH from>={} newpc={}",
                self.cycle, first_squashed, new_pc
            );
        }
        while let Some(back) = self.rob.back() {
            if back.seq < first_squashed {
                break;
            }
            let e = self.rob.pop_back().expect("nonempty");
            self.stats.commit_squashed_insts += 1;
            if e.state != EState::Waiting {
                self.stats.iew_exec_squashed_insts += 1;
                self.stats.iq_squashed_insts_issued += 1;
            }
            match e.op {
                Op::Load { .. } => {
                    if e.state != EState::Waiting {
                        self.stats.lsq_squashed_loads += 1;
                        if !e.speculative_at_dispatch {
                            self.stats.iq_squashed_non_spec_ld += 1;
                        }
                    }
                    if e.fault {
                        self.stats.faults_squashed += 1;
                    }
                }
                Op::Store { .. } if e.eff_addr.is_some() => {
                    self.stats.lsq_squashed_stores += 1;
                }
                _ => {}
            }
            if e.op.dst().is_some() {
                self.stats.rename_undone_maps += 1;
            }
            if self.serialize_block == Some(e.seq) {
                self.serialize_block = None;
            }
            self.note_removed(&e);
        }
        while self.load_seqs.back().is_some_and(|&s| s >= first_squashed) {
            self.load_seqs.pop_back();
        }
        while self.store_seqs.back().is_some_and(|&s| s >= first_squashed) {
            self.store_seqs.pop_back();
        }
        self.unresolved_ctrl.retain(|&s| s < first_squashed);
        // Reuse squashed sequence numbers so ROB seqs stay contiguous.
        self.next_seq = first_squashed;
        // Squashed seqs will be reused by entries that are not yet clean.
        self.clean_watermark = self.clean_watermark.min(first_squashed);
        // Rebuild the rename map from surviving entries, and prune wakeup
        // edges whose consumers were squashed (survivors' waiter lists must
        // only reference live consumers; stale ready/event heap entries are
        // instead dropped lazily on pop).
        self.reg_producer = [None; 32];
        let mut i = 0;
        while i < self.rob.len() {
            let slot = self.slot(self.rob[i].seq);
            let mut edge = self.waiter_head[slot];
            self.waiter_head[slot] = EDGE_NONE;
            while edge != EDGE_NONE {
                let eu = edge as usize;
                let next = self.edge_next[eu];
                if self.edge_consumer[eu] < first_squashed {
                    self.edge_next[eu] = self.waiter_head[slot];
                    self.waiter_head[slot] = edge;
                } else {
                    self.edge_linked[eu] = false;
                }
                edge = next;
            }
            i += 1;
        }
        for e in self.rob.iter() {
            if let Some(dst) = e.op.dst() {
                if dst != Reg::ZERO {
                    self.reg_producer[dst.index()] = Some(e.seq);
                }
            }
        }
        self.fetch_buffer.clear();
        self.fetch_pc = new_pc;
        self.fetch_parked = false;
        self.fetch_stall_until = self.cycle + 2; // redirect penalty
        self.stats.fetch_squash_cycles += 2;
        self.stats.commit_rob_squashing_cycles += 1;
    }
}
