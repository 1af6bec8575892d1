//! The Scan reference scheduler — the golden oracle the event-driven
//! scheduler must match bit for bit. Every whole-ROB sweep lives here:
//! completion and issue every cycle, the occupancy recount at rename, the
//! clean-older query, and the store-forwarding, 4K-alias and
//! order-violation searches. Debug builds also call the queries from the
//! event-driven path to cross-check its incremental state.
//!
//! Issue gating, execution, the assisted-load replay and squash are shared
//! with the event-driven scheduler, so only the visiting order differs.

use super::{aliases_4k, Cpu, EState};
use crate::isa::Op;

impl Cpu {
    /// Issue stage: sweep the whole ROB in seq order, executing up to
    /// `issue_width` ready entries.
    pub(super) fn issue_stage_scan(&mut self) {
        let mut issued = 0usize;
        // A DMA burst this cycle steals one of the four memory ports.
        let mut mem_issued = usize::from(self.dma_stole_port);
        let mut had_waiting = false;
        let mut i = 0;
        while i < self.rob.len() && issued < self.cfg.issue_width {
            if self.rob[i].state == EState::Waiting {
                had_waiting = true;
                let (seq, op) = (self.rob[i].seq, self.rob[i].op);
                if self.operands_ready(i) && self.may_issue(seq, op, mem_issued) {
                    self.issue_entry(i, op, &mut mem_issued);
                    issued += 1;
                }
            }
            i += 1;
        }
        if had_waiting && issued == 0 {
            self.stats.iq_operand_stall_cycles += 1;
        }
    }

    /// Completion stage: sweep every entry in seq order, retiring due
    /// executions and firing due assist replays.
    pub(super) fn complete_stage_scan(&mut self) {
        let mut idx = 0;
        while idx < self.rob.len() {
            if self.rob[idx].state == EState::Executing && self.rob[idx].done_at <= self.cycle {
                self.rob[idx].state = EState::Done;
                let seq = self.rob[idx].seq;
                self.entry_done(seq);
            }
            let e = &self.rob[idx];
            if e.state == EState::Done
                && e.assisted
                && !e.assist_handled
                && self.cycle >= e.assist_replay_at
            {
                self.replay_assisted_load(idx);
            }
            idx += 1;
        }
        // Assisted loads finish instantly in this model (latency 2), so the
        // replay above usually runs within a couple of cycles — inside the
        // transient window their consumers already left footprints.
    }

    /// Recomputes the structural occupancies (not-done entries, loads,
    /// stores, register producers) by scanning the ROB.
    pub(super) fn occupancy_scan(&self) -> (usize, usize, usize, usize) {
        let mut waiting = 0usize;
        let mut loads_in_flight = 0usize;
        let mut stores_in_flight = 0usize;
        let mut producers = 0usize;
        for e in self.rob.iter() {
            if e.state != EState::Done {
                waiting += 1;
            }
            match e.op {
                Op::Load { .. } => loads_in_flight += 1,
                Op::Store { .. } => stores_in_flight += 1,
                _ => {}
            }
            if e.op.dst().is_some() {
                producers += 1;
            }
        }
        (waiting, loads_in_flight, stores_in_flight, producers)
    }

    /// `true` if every entry older than `seq` is done with a clean outcome
    /// (no pending fault, no unresolved assist).
    pub(super) fn all_older_done_scan(&self, seq: u64) -> bool {
        self.rob
            .iter()
            .take_while(|e| e.seq < seq)
            .all(|e| e.state == EState::Done && !e.fault && (!e.assisted || e.assist_handled))
    }

    /// Store-to-load forwarding over the whole ROB: the data of the
    /// youngest store older than `seq` to exactly `addr`.
    pub(super) fn forwarding_store_scan(&self, seq: u64, addr: u64) -> Option<u64> {
        self.rob
            .iter()
            .take_while(|e| e.seq < seq)
            .filter(|e| matches!(e.op, Op::Store { .. }) && e.eff_addr == Some(addr))
            .filter_map(|e| e.store_data)
            .last()
    }

    /// 4K-alias injection over the whole ROB: the data of the youngest
    /// store older than `seq` whose address matches `addr` in the low 12
    /// bits but not exactly.
    pub(super) fn aliasing_store_scan(&self, seq: u64, addr: u64) -> Option<u64> {
        self.rob
            .iter()
            .rfind(|e| {
                e.seq < seq
                    && matches!(e.op, Op::Store { .. })
                    && e.store_data.is_some()
                    && e.eff_addr.is_some_and(|a| aliases_4k(a, addr))
            })
            .and_then(|e| e.store_data)
    }

    /// Order-violation search over the whole ROB: the oldest load younger
    /// than `store_seq` that already executed to `addr`, as `(seq, pc)`.
    pub(super) fn order_violator_scan(&self, store_seq: u64, addr: u64) -> Option<(u64, usize)> {
        self.rob
            .iter()
            .find(|e| {
                e.seq > store_seq
                    && e.executed_load
                    && e.state != EState::Waiting
                    && e.eff_addr == Some(addr)
            })
            .map(|e| (e.seq, e.pc))
    }
}
