//! The device stage (timer, interrupt controller, DMA engine), its
//! functional-path tick, and the interrupt-return lookup both paths share.

use evax_dram::AccessKind;

use super::{trace_enabled, Cpu};
use crate::device::{DeviceState, DMA_DST_BASE, DMA_LINE_BYTES, DMA_SRC_BASE};
use crate::isa::Program;

impl Cpu {
    /// Advances the asynchronous devices one cycle: timer fire, DMA burst
    /// (real memory traffic plus a stolen memory-issue port), pending
    /// pressure, and at most one IRQ delivery. Runs at the top of
    /// `step_cycle`, before commit, and touches only scheduler-shared state
    /// (memory system, squash primitive), so Scan and event-driven cores
    /// stay bit-identical with devices enabled too.
    pub(super) fn device_stage(&mut self, program: &Program) {
        self.dma_stole_port = false;
        let mut dev = self.dev.take().expect("device_stage requires devices");
        if self.device_advance_events(&mut dev) {
            self.dma_stole_port = true;
            dev.stats.dma_port_steal_cycles += 1;
        }
        if let Some(handler) = Self::device_deliver(&mut dev, program, self.arch_pc) {
            if trace_enabled() {
                eprintln!("[{}] IRQ deliver handler={}", self.cycle, handler);
            }
            dev.stats.irq_squashed_insts += self.rob.len() as u64;
            // Flush everything in flight (the return pc was latched from the
            // architectural pc) and redirect fetch into the service routine.
            // With an empty ROB this is a pure fetch redirect.
            let first = self.rob.front().map_or(self.next_seq, |e| e.seq);
            self.squash_from(first, handler);
            self.arch_pc = handler;
        }
        self.dev = Some(dev);
    }

    /// Functional-path device tick for [`Cpu::fast_forward`]: identical
    /// event logic to `device_stage` minus the pipeline flush and the port
    /// steal (the functional path has neither a pipeline nor an issue
    /// stage).
    pub(super) fn device_tick_functional(&mut self, program: &Program) {
        let mut dev = self.dev.take().expect("tick requires devices");
        let _ = self.device_advance_events(&mut dev);
        if let Some(handler) = Self::device_deliver(&mut dev, program, self.arch_pc) {
            self.arch_pc = handler;
        }
        self.dev = Some(dev);
    }

    /// Where an `IRet` at `pc` returns: the latched return pc when a service
    /// routine is active (which it leaves), otherwise fall-through — a stray
    /// `IRet`, or one with devices disabled, is a slow no-op, never
    /// undefined control flow.
    pub(super) fn iret_target(&mut self, pc: usize) -> usize {
        match self.dev.as_deref_mut() {
            Some(dev) if dev.irq_in_service => {
                dev.irq_in_service = false;
                dev.stats.irq_returns += 1;
                dev.irq_return_pc
            }
            _ => pc + 1,
        }
    }

    /// Fires due timer/DMA events at the current cycle: raises pending
    /// vectors and performs the DMA line copies through the real memory
    /// system (so the engine's traffic perturbs caches and DRAM exactly
    /// like core traffic would). Returns `true` on a DMA burst cycle —
    /// the detailed caller charges the stolen memory port.
    fn device_advance_events(&mut self, dev: &mut DeviceState) -> bool {
        if self.cycle >= dev.timer_next_fire {
            dev.timer_next_fire = self.cycle + self.cfg.devices.timer.period;
            dev.stats.timer_fires += 1;
            dev.stats.irq_raised += 1;
            dev.irq_pending |= 1;
        }
        if self.cycle < dev.dma_next_burst {
            return false;
        }
        let dma = self.cfg.devices.dma;
        dev.dma_next_burst = self.cycle + dma.period;
        dev.stats.dma_bursts += 1;
        for _ in 0..dma.burst_lines {
            let line = dev.dma_cursor;
            dev.dma_cursor = (dev.dma_cursor + 1) % dma.region_lines;
            let src = DMA_SRC_BASE + line * DMA_LINE_BYTES;
            let dst = DMA_DST_BASE + line * DMA_LINE_BYTES;
            let v = self.mem.read_u64(src);
            self.mem.write_u64(dst, v);
            // The engine writes memory behind the core's back: invalidate
            // any stale core-side copy of the destination line and charge
            // the DRAM channel occupancy that contends with core misses.
            self.dcache.flush_line(dst);
            self.l2.flush_line(dst);
            let resp = self.dram.access(dst, AccessKind::Write, self.cycle);
            self.apply_flips_response(&resp);
            dev.stats.dma_lines += 1;
        }
        if dma.irq_every != 0 {
            dev.dma_bursts_since_irq += 1;
            if dev.dma_bursts_since_irq >= dma.irq_every {
                dev.dma_bursts_since_irq = 0;
                dev.stats.irq_raised += 1;
                dev.irq_pending |= 1 << 1;
            }
        }
        true
    }

    /// Pending-pressure accounting plus at most one delivery decision per
    /// cycle: lowest pending vector wins, delivery is masked while a
    /// service routine runs, and a vector without an installed handler is
    /// dropped. Returns `Some(handler_pc)` after latching the in-service
    /// flag and the return pc; the caller redirects control.
    fn device_deliver(dev: &mut DeviceState, program: &Program, arch_pc: usize) -> Option<usize> {
        if dev.irq_pending == 0 {
            return None;
        }
        dev.stats.irq_pending_cycles += 1;
        if dev.irq_in_service {
            return None;
        }
        let vector = dev.irq_pending.trailing_zeros() as usize;
        dev.irq_pending &= !(1u64 << vector);
        match program.irq_handler(vector) {
            Some(handler) => {
                dev.stats.irq_taken += 1;
                dev.irq_in_service = true;
                dev.irq_return_pc = arch_pc;
                Some(handler)
            }
            None => {
                dev.stats.irq_dropped += 1;
                None
            }
        }
    }
}
