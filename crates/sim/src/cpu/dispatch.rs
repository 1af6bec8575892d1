//! Rename and dispatch, plus the scheduling bookkeeping every ROB
//! transition goes through: ring slots, the ready and event heaps, wakeup
//! edges and the occupancy counters. The bookkeeping runs under both
//! schedulers; only the heaps stay empty under Scan.

use std::cmp::Reverse;

use super::{Cpu, EState, RobEntry, EDGE_NONE};
use crate::config::SchedulerKind;
use crate::isa::{Op, Reg};

impl Cpu {
    pub(super) fn dispatch_stage(&mut self) {
        if let Some(block_seq) = self.serialize_block {
            // Blocked behind a serializing instruction until it commits.
            // ROB seqs are contiguous, so presence is a range check.
            if self.rob.front().is_some_and(|f| block_seq >= f.seq) {
                self.stats.fetch_pending_quiesce_stall_cycles += 1;
                return;
            }
            self.serialize_block = None;
        }
        // Structural occupancy, read once per cycle and updated locally.
        // The event scheduler keeps these as running counters; the scan
        // scheduler recomputes them (the original reference behavior).
        let (mut waiting, mut loads_in_flight, mut stores_in_flight, mut producers) =
            match self.sched {
                SchedulerKind::Scan => self.occupancy_scan(),
                SchedulerKind::EventDriven => {
                    let counted = (
                        self.num_not_done,
                        self.loads_in_flight,
                        self.stores_in_flight,
                        self.producers_in_flight,
                    );
                    debug_assert_eq!(counted, self.occupancy_scan());
                    counted
                }
            };
        for _ in 0..self.cfg.fetch_width {
            let Some(front) = self.fetch_buffer.front() else {
                break;
            };
            if front.ready_at > self.cycle {
                break;
            }
            if self.rob.len() >= self.cfg.rob_entries {
                self.stats.rename_rob_full_events += 1;
                break;
            }
            if waiting >= self.cfg.iq_entries {
                self.stats.rename_iq_full_events += 1;
                break;
            }
            match front.op {
                Op::Load { .. } if loads_in_flight >= self.cfg.lq_entries => {
                    self.stats.rename_lq_full_events += 1;
                    break;
                }
                Op::Store { .. } if stores_in_flight >= self.cfg.sq_entries => {
                    self.stats.rename_sq_full_events += 1;
                    break;
                }
                _ => {}
            }
            // Physical registers: in-flight producers + architectural state.
            if producers + Reg::COUNT >= self.cfg.phys_int_regs {
                self.stats.rename_full_registers_events += 1;
                break;
            }
            if front.op.is_serializing() {
                if !self.rob.is_empty() {
                    self.stats.fetch_pending_quiesce_stall_cycles += 1;
                    break;
                }
                self.stats.rename_serializing_insts += 1;
            }

            let fi = self.fetch_buffer.pop_front().expect("front checked");
            let seq = self.next_seq;
            self.next_seq += 1;
            let speculative = !self.unresolved_ctrl.is_empty();
            if speculative {
                self.stats.spec_insts_added += 1;
            }
            let resolved = matches!(fi.op, Op::Jmp { .. } | Op::Call { .. });
            if fi.op.is_control() && !resolved {
                self.unresolved_ctrl.push(seq);
            }
            // Rename: capture each source's in-flight producer (if any).
            let mut deps: [Option<(Reg, u64)>; 2] = [None, None];
            for (slot, r) in fi.op.sources().into_iter().enumerate() {
                let Some(r) = r else { continue };
                if r != Reg::ZERO {
                    if let Some(pseq) = self.reg_producer[r.index()] {
                        deps[slot] = Some((r, pseq));
                    }
                }
            }
            if let Some(dst) = fi.op.dst() {
                if dst != Reg::ZERO {
                    self.reg_producer[dst.index()] = Some(seq);
                }
            }
            self.stats.rename_renamed_insts += 1;
            if fi.op.is_serializing() {
                self.serialize_block = Some(seq);
            }
            waiting += 1;
            match fi.op {
                Op::Load { .. } => loads_in_flight += 1,
                Op::Store { .. } => stores_in_flight += 1,
                _ => {}
            }
            if fi.op.dst().is_some() {
                producers += 1;
            }
            let is_ser = fi.op.is_serializing();
            self.rob.push_back(RobEntry {
                seq,
                pc: fi.pc,
                op: fi.op,
                state: EState::Waiting,
                done_at: 0,
                result: 0,
                eff_addr: None,
                store_data: None,
                fault: false,
                assisted: false,
                assist_handled: false,
                assist_replay_at: 0,
                predicted_next: fi.predicted_next,
                dir_pred: fi.dir_pred,
                used_ras: fi.used_ras,
                ras_snap: fi.ras_snap,
                speculative_at_dispatch: speculative,
                invisible: false,
                exposed: false,
                resolved,
                executed_load: false,
                deps,
            });
            self.note_dispatched();
            if is_ser {
                break;
            }
        }
    }

    /// Ring slot of a seq. The ring is at least `rob_entries` slots and ROB
    /// seqs are contiguous, so every in-flight seq maps to a unique slot.
    pub(super) fn slot(&self, seq: u64) -> usize {
        (seq & self.ring_mask) as usize
    }

    /// ROB index of `seq`, or `None` if it is not in flight (committed,
    /// squashed, or a stale heap entry from a reused seq range).
    pub(super) fn rob_index_of(&self, seq: u64) -> Option<usize> {
        let front = self.rob.front()?.seq;
        if seq < front {
            return None;
        }
        let idx = (seq - front) as usize;
        if idx < self.rob.len() {
            debug_assert_eq!(self.rob[idx].seq, seq, "ROB seq contiguity violated");
            Some(idx)
        } else {
            None
        }
    }

    /// Queues an issue candidate (event mode only; lazily validated on pop).
    pub(super) fn push_ready(&mut self, seq: u64) {
        if self.sched == SchedulerKind::EventDriven {
            self.ready.push(Reverse(seq));
            self.sched_counters.ready_pushes += 1;
            let depth = self.ready.len() as u64;
            if depth > self.sched_counters.ready_heap_peak {
                self.sched_counters.ready_heap_peak = depth;
            }
        }
    }

    /// Queues a timed completion/replay event (event mode only).
    pub(super) fn schedule_event(&mut self, at: u64, seq: u64, kind: u8) {
        if self.sched == SchedulerKind::EventDriven {
            self.events.push(Reverse((at, seq, kind)));
            self.sched_counters.events_scheduled += 1;
            let depth = self.events.len() as u64;
            if depth > self.sched_counters.event_heap_peak {
                self.sched_counters.event_heap_peak = depth;
            }
        }
    }

    /// Threads wakeup edge `edge` (owned by its consumer) into
    /// `producer_seq`'s waiter list.
    fn link_edge(&mut self, producer_seq: u64, edge: u32, consumer_seq: u64) {
        let pslot = self.slot(producer_seq);
        let eu = edge as usize;
        debug_assert!(!self.edge_linked[eu]);
        self.edge_linked[eu] = true;
        self.edge_consumer[eu] = consumer_seq;
        self.edge_next[eu] = self.waiter_head[pslot];
        self.waiter_head[pslot] = edge;
    }

    /// A producer's result became available: drain its waiter list,
    /// decrementing each consumer's pending-dependency counter and queueing
    /// consumers that became ready.
    fn wake_waiters(&mut self, producer_seq: u64) {
        let pslot = self.slot(producer_seq);
        let mut edge = self.waiter_head[pslot];
        self.waiter_head[pslot] = EDGE_NONE;
        while edge != EDGE_NONE {
            let eu = edge as usize;
            let next = self.edge_next[eu];
            self.edge_linked[eu] = false;
            let cslot = eu / 2;
            debug_assert!(self.deps_pending[cslot] > 0);
            self.deps_pending[cslot] -= 1;
            if self.deps_pending[cslot] == 0 {
                self.push_ready(self.edge_consumer[eu]);
            }
            edge = next;
        }
    }

    /// Transition bookkeeping for an entry reaching `Done`: occupancy
    /// counter plus consumer wakeup.
    pub(super) fn entry_done(&mut self, seq: u64) {
        debug_assert!(self.num_not_done > 0);
        self.num_not_done -= 1;
        self.wake_waiters(seq);
    }

    /// Bookkeeping for the entry just pushed onto the ROB tail: seed its
    /// dependency counter from the captured producers' states, register
    /// wakeup edges on still-in-flight producers, and bump the occupancy
    /// counters and LQ/SQ seq lists.
    fn note_dispatched(&mut self) {
        let e = self.rob.back().expect("just pushed");
        let seq = e.seq;
        let deps = e.deps;
        let op = e.op;
        let slot = self.slot(seq);
        debug_assert!(!self.edge_linked[slot * 2] && !self.edge_linked[slot * 2 + 1]);
        let front = self.rob.front().expect("rob nonempty").seq;
        let mut pending = 0u8;
        for (d_i, d) in deps.iter().enumerate() {
            let Some((_, pseq)) = *d else { continue };
            // Rename only captures in-flight producers, so `pseq` is in the
            // ROB window by construction.
            debug_assert!(pseq >= front);
            if self.rob[(pseq - front) as usize].state != EState::Done {
                pending += 1;
                self.link_edge(pseq, (slot * 2 + d_i) as u32, seq);
            }
        }
        self.deps_pending[slot] = pending;
        if pending == 0 {
            self.push_ready(seq);
        }
        self.num_waiting += 1;
        self.num_not_done += 1;
        match op {
            Op::Load { .. } => {
                self.loads_in_flight += 1;
                self.load_seqs.push_back(seq);
            }
            Op::Store { .. } => {
                self.stores_in_flight += 1;
                self.store_seqs.push_back(seq);
            }
            _ => {}
        }
        if op.dst().is_some() {
            self.producers_in_flight += 1;
        }
    }

    /// Counter + wakeup-edge bookkeeping for an entry leaving the ROB
    /// (commit or squash). Clears the entry's waiter list: a committed
    /// entry's list is already empty (drained when it became `Done`); a
    /// squashed entry's list may still hold edges to consumers squashed in
    /// the same pass.
    pub(super) fn note_removed(&mut self, e: &RobEntry) {
        if e.state == EState::Waiting {
            debug_assert!(self.num_waiting > 0);
            self.num_waiting -= 1;
        }
        if e.state != EState::Done {
            debug_assert!(self.num_not_done > 0);
            self.num_not_done -= 1;
        }
        match e.op {
            Op::Load { .. } => self.loads_in_flight -= 1,
            Op::Store { .. } => self.stores_in_flight -= 1,
            _ => {}
        }
        if e.op.dst().is_some() {
            self.producers_in_flight -= 1;
        }
        let slot = self.slot(e.seq);
        let mut edge = self.waiter_head[slot];
        self.waiter_head[slot] = EDGE_NONE;
        while edge != EDGE_NONE {
            let eu = edge as usize;
            self.edge_linked[eu] = false;
            edge = self.edge_next[eu];
        }
    }

    /// The head load regressed from `Done` to `Executing` for InvisiSpec
    /// exposure: any still-`Waiting` consumer that captured it as a producer
    /// must block again. Consumers whose edge is still linked are already
    /// blocked (their other dependency); the rest get their counter bumped
    /// and a fresh edge — stale ready-heap entries then fail validation.
    pub(super) fn reblock_consumers_of(&mut self, producer_seq: u64) {
        let mut i = 0;
        while i < self.rob.len() {
            if self.rob[i].state == EState::Waiting {
                let cseq = self.rob[i].seq;
                let cslot = self.slot(cseq);
                let deps = self.rob[i].deps;
                for (d_i, d) in deps.iter().enumerate() {
                    let Some((_, pseq)) = *d else { continue };
                    let edge = cslot * 2 + d_i;
                    if pseq == producer_seq && !self.edge_linked[edge] {
                        self.deps_pending[cslot] += 1;
                        self.link_edge(producer_seq, edge as u32, cseq);
                    }
                }
            }
            i += 1;
        }
    }
}
