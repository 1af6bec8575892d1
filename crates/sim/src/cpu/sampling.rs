//! HPC-sampled run loops: the resumable [`SampledCursor`], its
//! interval-sampling [`SampleSchedule`], and the `run*` entry points built
//! on it.

use evax_dram::state::Words;

use super::{Cpu, RunResult};
use crate::config::MitigationMode;
use crate::isa::Program;

/// One HPC sampling window (delta of every counter over the window).
#[derive(Debug, Clone, PartialEq)]
pub struct HpcSample {
    /// Committed instructions at the end of the window.
    pub instructions: u64,
    /// Cycle at the end of the window.
    pub cycle: u64,
    /// Per-counter deltas, ordered as the configuration's
    /// [`FeatureSchema`](crate::schema::FeatureSchema).
    pub values: Vec<f64>,
}

/// Interval-sampling schedule for a sampled run (SMARTS-style): between
/// detailed sampling phases the core **fast-forwards** functionally —
/// architectural state is exact, caches/TLBs/predictors are warmed by
/// touch, and the out-of-order pipeline is skipped entirely.
///
/// The default (`warmup_instrs == 0`) disables fast-forwarding: every
/// instruction runs on the detailed core, bit-identical to the pre-schedule
/// behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SampleSchedule {
    /// Instructions to retire on the functional fast-forward path before
    /// each detailed phase. `0` disables fast-forwarding.
    pub warmup_instrs: u64,
    /// Instructions to run on the detailed core per detailed phase
    /// (clamped to at least 1 when `warmup_instrs > 0`).
    pub detail_instrs: u64,
}

/// Resumable sampled-execution state: everything [`Cpu::run_sampled`]
/// used to keep on its stack, lifted into a value so callers can advance
/// a core one sampling window at a time (see [`Cpu::begin_sampled`]).
///
/// The cursor deliberately borrows nothing: every step takes the `Cpu`
/// and `Program` explicitly, so a fleet scheduler can own thousands of
/// `(Cpu, SampledCursor)` pairs in plain `Vec`s.
#[derive(Debug, Clone)]
pub struct SampledCursor {
    start_committed: u64,
    start_cycle: u64,
    cycle_budget: u64,
    max_instrs: u64,
    sample_interval: u64,
    /// Fast-forward phase length (0 = pure detailed execution).
    warmup_instrs: u64,
    /// Detailed phase length between fast-forward phases.
    detail_instrs: u64,
    /// Detailed instructions remaining before the next fast-forward phase.
    /// Starts at 0 when a schedule is active so the run opens with warm-up.
    detail_left: u64,
    /// Absolute counter values at the previous window boundary.
    prev_vec: Vec<f64>,
    done: bool,
}

/// Outcome of one [`SampledCursor::next_window_into`] step.
#[derive(Debug, Clone, PartialEq)]
pub enum SampledStep {
    /// A sampling window closed. Per-counter **deltas** (ordered as the
    /// configuration's [`FeatureSchema`](crate::schema::FeatureSchema))
    /// were written into the caller's buffer.
    Window {
        /// Committed instructions at the end of the window.
        instructions: u64,
        /// Cycle at the end of the window.
        cycle: u64,
    },
    /// The run finished: `Halt` committed, the instruction budget was
    /// reached, or the cycle ceiling tripped. Subsequent calls keep
    /// returning `Done` without stepping the core.
    ///
    /// Boxed: [`RunResult`] carries the full architectural register file,
    /// which would otherwise dominate the enum's size next to `Window`.
    Done(Box<RunResult>),
}

/// Hard cycle ceiling for a run of `max_instrs` instructions, so a wedged
/// configuration (or a fault handler that faults forever) cannot hang the
/// host.
pub(super) fn cycle_ceiling(max_instrs: u64) -> u64 {
    max_instrs.saturating_mul(200).max(100_000)
}

impl SampledCursor {
    /// Advances the core until the next sampling window closes (writing
    /// the counter deltas into `values`, which must be
    /// `dim_for(cpu.config())` long) or the run ends.
    ///
    /// The step sequence — loop-condition check, `step_cycle`, window
    /// check — is exactly the one the original monolithic `run_sampled`
    /// loop performed, so a run driven through this cursor is
    /// cycle-for-cycle identical to one driven by `run_sampled`.
    pub fn next_window_into(
        &mut self,
        cpu: &mut Cpu,
        program: &Program,
        values: &mut [f64],
    ) -> SampledStep {
        debug_assert_eq!(values.len(), self.prev_vec.len());
        while !self.done {
            if self.warmup_instrs > 0 && self.detail_left == 0 {
                // Fast-forward phase: retire instructions functionally,
                // capped by the remaining instruction budget. Counters move
                // during warm-up (touch effects), so re-baseline the delta
                // tracking afterwards: the next window's deltas cover only
                // the detailed phase.
                let used = cpu.stats.committed_insts - self.start_committed;
                let room = self.max_instrs.saturating_sub(used);
                if room > 0 {
                    cpu.fast_forward(program, self.warmup_instrs.min(room));
                }
                crate::hpc::hpc_vector_into(cpu, &mut self.prev_vec);
                cpu.committed_since_sample = 0;
                self.detail_left = self.detail_instrs.max(1);
            }
            if cpu.halted
                || cpu.stats.committed_insts - self.start_committed >= self.max_instrs
                || cpu.cycle - self.start_cycle >= self.cycle_budget
            {
                self.done = true;
                break;
            }
            let before = cpu.stats.committed_insts;
            cpu.step_cycle(program);
            if self.warmup_instrs > 0 {
                let retired = cpu.stats.committed_insts - before;
                self.detail_left = self.detail_left.saturating_sub(retired);
            }
            if cpu.committed_since_sample >= self.sample_interval {
                cpu.committed_since_sample = 0;
                crate::hpc::hpc_vector_into(cpu, values);
                for (v, p) in values.iter_mut().zip(self.prev_vec.iter_mut()) {
                    let cur = *v;
                    *v -= *p;
                    *p = cur;
                }
                return SampledStep::Window {
                    instructions: cpu.stats.committed_insts,
                    cycle: cpu.cycle,
                };
            }
        }
        SampledStep::Done(Box::new(self.result(cpu)))
    }

    /// Snapshot of the run totals so far, in the same shape `run_sampled`
    /// returns at the end of a run.
    pub fn result(&self, cpu: &Cpu) -> RunResult {
        let committed = cpu.stats.committed_insts - self.start_committed;
        RunResult {
            committed_instructions: committed,
            cycles: cpu.cycle - self.start_cycle,
            ipc: if cpu.cycle > self.start_cycle {
                committed as f64 / (cpu.cycle - self.start_cycle) as f64
            } else {
                0.0
            },
            halted: cpu.halted,
            regs: cpu.arch_regs,
        }
    }

    /// A zeroed cursor over the baseline `prev_vec` (whose length is the
    /// counter width), for [`SampledCursor::state`] to load into.
    pub(super) fn blank(prev_vec: Vec<f64>) -> SampledCursor {
        SampledCursor {
            start_committed: 0,
            start_cycle: 0,
            cycle_budget: 0,
            max_instrs: 0,
            sample_interval: 0,
            warmup_instrs: 0,
            detail_instrs: 0,
            detail_left: 0,
            prev_vec,
            done: false,
        }
    }

    /// Visits the cursor's state, `f64` deltas via `to_bits` so the round
    /// trip is bitwise (see [`evax_dram::state`]). The counter width is
    /// fixed by `prev_vec`: a cursor recorded against a different schema
    /// fails to load.
    pub(super) fn state(&mut self, w: &mut Words<'_>) -> Option<()> {
        w.u64s([
            &mut self.start_committed,
            &mut self.start_cycle,
            &mut self.cycle_budget,
            &mut self.max_instrs,
            &mut self.sample_interval,
            &mut self.warmup_instrs,
            &mut self.detail_instrs,
            &mut self.detail_left,
        ])?;
        w.flag(&mut self.done)?;
        let dim = self.prev_vec.len();
        w.prefix(dim, dim).filter(|&n| n == dim)?;
        for v in &mut self.prev_vec {
            let mut bits = v.to_bits();
            w.u64(&mut bits)?;
            *v = f64::from_bits(bits);
        }
        Some(())
    }
}

impl Cpu {
    /// Runs `program` from its first instruction until `Halt` commits or
    /// `max_instrs` instructions have committed.
    pub fn run(&mut self, program: &Program, max_instrs: u64) -> RunResult {
        self.run_sampled(program, max_instrs, u64::MAX, |_| None)
    }

    /// Runs with HPC sampling: every `sample_interval` committed
    /// instructions, `on_sample` receives the counter deltas for the window
    /// and may switch the mitigation mode (returning `Some(mode)`).
    ///
    /// The sample is passed **by value**: collection call-backs that retain
    /// every window (the common case — see `evax-core::collect`) keep the
    /// delta vector without copying it.
    pub fn run_sampled(
        &mut self,
        program: &Program,
        max_instrs: u64,
        sample_interval: u64,
        on_sample: impl FnMut(HpcSample) -> Option<MitigationMode>,
    ) -> RunResult {
        self.run_sampled_with_schedule(
            program,
            max_instrs,
            sample_interval,
            SampleSchedule::default(),
            on_sample,
        )
    }

    /// Starts an incremental sampled run, returning a [`SampledCursor`]
    /// that advances this core **one sampling window at a time**.
    ///
    /// This is the resumable form of [`Cpu::run_sampled`] (which is a thin
    /// wrapper over it): a multi-stream scheduler can hold thousands of
    /// `(Cpu, SampledCursor)` pairs and interleave them window-by-window
    /// without restarting any program. The front end is reset here, exactly
    /// as `run_sampled` does, so the cursor always begins at the program's
    /// first instruction.
    ///
    /// The cursor is tied to this one run: interleaving it with another
    /// `run*`/`begin_sampled` call on the same core yields unspecified
    /// (but memory-safe) results.
    pub fn begin_sampled(&mut self, max_instrs: u64, sample_interval: u64) -> SampledCursor {
        self.begin_sampled_with_schedule(max_instrs, sample_interval, SampleSchedule::default())
    }

    /// [`Cpu::begin_sampled`] with an interval-sampling schedule: the cursor
    /// alternates functional fast-forward phases (`schedule.warmup_instrs`)
    /// with detailed phases (`schedule.detail_instrs`), opening with a
    /// warm-up. A zero `warmup_instrs` reduces to plain `begin_sampled` —
    /// bit-identical, not merely equivalent.
    pub fn begin_sampled_with_schedule(
        &mut self,
        max_instrs: u64,
        sample_interval: u64,
        schedule: SampleSchedule,
    ) -> SampledCursor {
        let start_committed = self.stats.committed_insts;
        self.arch_pc = 0;
        self.reset_front_end_at(0);
        if let Some(dev) = self.dev.as_deref_mut() {
            // New program, new handler table: clear transient IRQ state and
            // re-arm the fire times relative to now. Cumulative DeviceStats
            // survive — sampling works on window deltas.
            dev.reset_for_run(self.cycle, &self.cfg.devices);
        }
        let dim = crate::hpc::dim_for(self.config());
        let mut prev_vec = vec![0.0f64; dim];
        crate::hpc::hpc_vector_into(self, &mut prev_vec);
        self.committed_since_sample = 0;
        SampledCursor {
            start_committed,
            start_cycle: self.cycle,
            cycle_budget: cycle_ceiling(max_instrs),
            max_instrs,
            sample_interval,
            warmup_instrs: schedule.warmup_instrs,
            detail_instrs: schedule.detail_instrs,
            ..SampledCursor::blank(prev_vec)
        }
    }

    /// [`Cpu::run_sampled`] under an interval-sampling schedule (see
    /// [`SampleSchedule`]). Sampling windows close only during detailed
    /// phases; fast-forward phases re-baseline the counter deltas.
    pub fn run_sampled_with_schedule(
        &mut self,
        program: &Program,
        max_instrs: u64,
        sample_interval: u64,
        schedule: SampleSchedule,
        mut on_sample: impl FnMut(HpcSample) -> Option<MitigationMode>,
    ) -> RunResult {
        let mut cursor = self.begin_sampled_with_schedule(max_instrs, sample_interval, schedule);
        let dim = crate::hpc::dim_for(self.config());
        loop {
            // The retained delta row is the window's only allocation:
            // counters are read straight into it, then converted to
            // deltas in place while the absolute values move to `prev`.
            let mut values = vec![0.0f64; dim];
            match cursor.next_window_into(self, program, &mut values) {
                SampledStep::Window {
                    instructions,
                    cycle,
                } => {
                    let sample = HpcSample {
                        instructions,
                        cycle,
                        values,
                    };
                    if let Some(mode) = on_sample(sample) {
                        self.set_mitigation(mode);
                    }
                }
                SampledStep::Done(result) => return *result,
            }
        }
    }
}
