//! The out-of-order core: fetch → rename/dispatch → issue → execute →
//! commit, with transient-execution semantics faithful enough to host every
//! attack class the EVAX paper evaluates:
//!
//! * mispredicted branches/returns/indirect jumps execute real wrong-path
//!   instructions until resolution (Spectre-PHT/BTB/RSB windows);
//! * faulting loads forward data transiently and fault only at commit
//!   (Meltdown window);
//! * loads with slow ("assisted") translations transiently forward a
//!   4K-aliasing store-buffer value and replay (LVI/MDS/Fallout window);
//! * speculative memory accesses mutate cache/TLB/predictor state — the
//!   side channel — unless an InvisiSpec mitigation mode hides them;
//! * store-address resolution detects memory-order violations and squashes.
//!
//! The transient window is bounded by the ROB (`ROBEntries=192`, Table II),
//! the property EVAX's adversarial hardening leans on.
//!
//! # Scheduling
//!
//! Two interchangeable scheduling cores drive `step_cycle`
//! ([`SchedulerKind`]): the original **scan** scheduler (full-ROB sweeps in
//! issue/complete/dispatch every cycle — the golden reference) and the
//! **event-driven** scheduler (per-entry dependency counters, producer→
//! consumer wakeup edges, a seq-ordered ready heap, and a time-ordered
//! completion/replay event heap), which touches only entries with actual
//! work. Both are bit-identical by construction — the event machinery
//! reproduces the scan order exactly (ready candidates pop in seq order,
//! events in `(cycle, seq, kind)` order, matching the scan's index order) —
//! and the golden-equivalence tests plus debug assertions enforce it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use evax_dram::{AccessKind, Dram};
use rand::Rng;

use crate::branch::{Btb, DirPrediction, Ras, RasSnapshot, TournamentPredictor};
use crate::cache::Cache;
use crate::config::{CpuConfig, MitigationMode, SchedulerKind};
use crate::isa::{Op, Program, Reg};
use crate::memory::Memory;
use crate::stats::PipelineStats;
use crate::tlb::Tlb;

fn trace_enabled() -> bool {
    static FLAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FLAG.get_or_init(|| std::env::var("EVAX_TRACE").is_ok())
}

/// Base byte address of the code region (I-side accesses).
pub const CODE_BASE: u64 = 0x4000_0000;
/// Bytes per instruction (fixed-width encoding).
pub const INSTR_BYTES: u64 = 4;

/// Sentinel for "no wakeup edge" in the intrusive waiter lists.
const EDGE_NONE: u32 = u32::MAX;
/// Event kinds on the time-ordered heap. A completion and a replay due the
/// same cycle for the same entry must run completion-first (the scan
/// scheduler transitions to `Done` before checking the replay), hence
/// `EV_COMPLETE < EV_ASSIST_REPLAY` in the `(cycle, seq, kind)` sort key.
const EV_COMPLETE: u8 = 0;
const EV_ASSIST_REPLAY: u8 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EState {
    Waiting,
    Executing,
    Done,
}

#[derive(Debug, Clone)]
struct RobEntry {
    seq: u64,
    pc: usize,
    op: Op,
    state: EState,
    done_at: u64,
    result: u64,
    eff_addr: Option<u64>,
    store_data: Option<u64>,
    fault: bool,
    assisted: bool,
    assist_handled: bool,
    assist_replay_at: u64,
    predicted_next: usize,
    dir_pred: Option<DirPrediction>,
    used_ras: bool,
    ras_snap: Option<RasSnapshot>,
    speculative_at_dispatch: bool,
    invisible: bool,
    exposed: bool,
    resolved: bool,
    executed_load: bool,
    /// Renamed sources: (register, producer seq) captured at dispatch.
    deps: [Option<(Reg, u64)>; 2],
}

#[derive(Debug, Clone)]
struct FetchedInstr {
    pc: usize,
    op: Op,
    ready_at: u64,
    predicted_next: usize,
    dir_pred: Option<DirPrediction>,
    used_ras: bool,
    ras_snap: Option<RasSnapshot>,
}

/// Outcome of a program run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Instructions committed.
    pub committed_instructions: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// Committed IPC.
    pub ipc: f64,
    /// `true` if the program reached `Halt` (vs. the instruction budget).
    pub halted: bool,
    /// Final architectural register file.
    pub regs: [u64; 32],
}

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

    /// `true` once the run has ended (a `Done` step was produced).
    pub fn is_done(&self) -> bool {
        self.done
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

    /// Appends the cursor's state to a snapshot word stream (`f64` deltas
    /// via `to_bits`, so the round trip is bitwise).
    pub(crate) fn save_state(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(&[
            self.start_committed,
            self.start_cycle,
            self.cycle_budget,
            self.max_instrs,
            self.sample_interval,
            self.warmup_instrs,
            self.detail_instrs,
            self.detail_left,
            self.done as u64,
        ]);
        out.push(self.prev_vec.len() as u64);
        for &v in &self.prev_vec {
            out.push(v.to_bits());
        }
    }

    /// Rebuilds a cursor from a snapshot word stream. `expected_dim` is the
    /// counter width of the restoring configuration
    /// (`crate::hpc::dim_for`); a cursor recorded against a different
    /// schema is malformed. Returns `None` on a truncated or malformed
    /// stream.
    pub(crate) fn load_state(
        w: &mut std::slice::Iter<'_, u64>,
        expected_dim: usize,
    ) -> Option<SampledCursor> {
        let start_committed = *w.next()?;
        let start_cycle = *w.next()?;
        let cycle_budget = *w.next()?;
        let max_instrs = *w.next()?;
        let sample_interval = *w.next()?;
        let warmup_instrs = *w.next()?;
        let detail_instrs = *w.next()?;
        let detail_left = *w.next()?;
        let done = match *w.next()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let n = usize::try_from(*w.next()?).ok()?;
        if n != expected_dim {
            return None;
        }
        let mut prev_vec = Vec::with_capacity(n);
        for _ in 0..n {
            prev_vec.push(f64::from_bits(*w.next()?));
        }
        Some(SampledCursor {
            start_committed,
            start_cycle,
            cycle_budget,
            max_instrs,
            sample_interval,
            warmup_instrs,
            detail_instrs,
            detail_left,
            prev_vec,
            done,
        })
    }
}

/// Scheduler-core activity counters, maintained by the event-driven
/// scheduling core (all zero in [`SchedulerKind::Scan`] mode, whose
/// reference loop bypasses the heaps).
///
/// These are pure observability: they never feed back into scheduling
/// decisions, so enabling or reading them cannot perturb simulated
/// behavior. `evax_obs` exports them as `sim.sched.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Timed completion/replay events pushed onto the event heap.
    pub events_scheduled: u64,
    /// Peak event-heap occupancy observed after a push.
    pub event_heap_peak: u64,
    /// Issue candidates pushed onto the ready heap (including re-pushes of
    /// gate-skipped candidates).
    pub ready_pushes: u64,
    /// Peak ready-heap occupancy observed after a push.
    pub ready_heap_peak: u64,
}

/// The simulated core.
///
/// `Clone` forks the complete core (architectural + microarchitectural
/// state): a restored warm template can be cloned per tenant stream far
/// cheaper than re-parsing its snapshot word stream.
#[derive(Clone)]
pub struct Cpu {
    cfg: CpuConfig,
    mitigation: MitigationMode,
    cycle: u64,
    next_seq: u64,
    arch_regs: [u64; 32],
    reg_producer: [Option<u64>; 32],
    rob: VecDeque<RobEntry>,
    fetch_pc: usize,
    /// Architectural (committed) program counter: the pc the next committed
    /// instruction will execute at. Maintained at commit so the core can be
    /// quiesced (pipeline drained, fetch rolled back here) for snapshots and
    /// functional fast-forwarding.
    arch_pc: usize,
    fetch_buffer: VecDeque<FetchedInstr>,
    fetch_stall_until: u64,
    fetch_parked: bool,
    serialize_block: Option<u64>,
    arch_ret_stack: Vec<usize>,
    bp: TournamentPredictor,
    btb: Btb,
    ras: Ras,
    icache: Cache,
    dcache: Cache,
    l2: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    dram: Dram,
    mem: Memory,
    stats: PipelineStats,
    rdrand_busy_until: u64,
    rng_state: u64,
    halted: bool,
    committed_since_sample: u64,
    /// Seqs of in-flight unresolved control instructions (ascending).
    unresolved_ctrl: Vec<u64>,
    /// Stride-prefetcher table: per load-pc (last address, stride,
    /// 2-bit confidence).
    stride_table: Vec<(u64, i64, u8)>,

    // --- scheduling core (see module docs) -----------------------------
    //
    // Entries are addressed by ring slot: ROB seqs are contiguous, so
    // `seq & ring_mask` (ring = rob_entries rounded up to a power of two)
    // maps every in-flight seq to a unique slot. The bookkeeping below is
    // maintained in BOTH scheduler modes (it is cheap and keeps the state
    // coherent regardless of the configured mode); only the ready/event
    // heaps are fed in event-driven mode.
    /// Active scheduling core, from `CpuConfig::scheduler`.
    sched: SchedulerKind,
    /// `ring - 1` where `ring = rob_entries.next_power_of_two()`.
    ring_mask: u64,
    /// Per-slot count of not-yet-`Done` producers of the entry's sources.
    deps_pending: Vec<u8>,
    /// Per-slot head of the producer's intrusive waiter list (edge id).
    waiter_head: Vec<u32>,
    /// Edge id -> next edge in the same waiter list. Edge id
    /// `consumer_slot * 2 + dep_index`, so each entry owns exactly two.
    edge_next: Vec<u32>,
    /// Edge id -> consumer seq (for the ready push on wakeup).
    edge_consumer: Vec<u64>,
    /// Edge id -> currently threaded into some waiter list.
    edge_linked: Vec<bool>,
    /// Seq-ordered min-heap of issue candidates (lazily validated on pop).
    ready: BinaryHeap<Reverse<u64>>,
    /// Scratch for candidates skipped by issue gating this cycle (ports,
    /// serialization, fencing); re-pushed after the issue loop. Reused
    /// across cycles so the hot path never allocates.
    ready_skipped: Vec<u64>,
    /// Time-ordered `(due_cycle, seq, kind)` completion/replay events,
    /// lazily validated on pop (squash + seq reuse make events stale).
    events: BinaryHeap<Reverse<(u64, u64, u8)>>,
    /// All seqs `< clean_watermark` have finished with a clean outcome
    /// (Done, no pending fault, no unresolved assist). Advanced lazily in
    /// `all_older_done`; clamped back on squash and InvisiSpec exposure.
    clean_watermark: u64,
    /// Entries in `Waiting` state (for the issue-stall counter).
    num_waiting: usize,
    /// Entries not yet `Done` (the IQ occupancy the rename stage checks).
    num_not_done: usize,
    /// In-flight loads / stores / destination-register writers (the other
    /// structural occupancies the rename stage checks).
    loads_in_flight: usize,
    stores_in_flight: usize,
    producers_in_flight: usize,
    /// Seqs of in-flight stores/loads (ascending, bounded by SQ/LQ size):
    /// restrict forwarding, 4K-alias and order-violation sweeps to actual
    /// memory ops instead of the whole ROB.
    store_seqs: VecDeque<u64>,
    load_seqs: VecDeque<u64>,
    /// Event/ready-heap activity tallies (observability only).
    sched_counters: SchedCounters,
    /// Asynchronous-event devices (timer / interrupt controller / DMA).
    /// `None` when `DeviceConfig` is disabled — the device stage is then
    /// never entered, so a disabled core is bitwise-identical to a
    /// pre-device one by construction.
    dev: Option<Box<crate::device::DeviceState>>,
    /// The DMA engine stole a memory port this cycle: both issue stages
    /// start their `mem_issued` budget at 1 instead of 0.
    dma_stole_port: bool,
}

impl std::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("cycle", &self.cycle)
            .field("committed", &self.stats.committed_insts)
            .field("rob_occupancy", &self.rob.len())
            .field("mitigation", &self.mitigation)
            .finish()
    }
}

impl Cpu {
    /// Creates a core from a configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: CpuConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid CPU config: {e}");
        }
        let ring = cfg.rob_entries.next_power_of_two();
        let dev = cfg
            .devices
            .enabled
            .then(|| Box::new(crate::device::DeviceState::new(&cfg.devices)));
        Cpu {
            mitigation: cfg.mitigation,
            cycle: 0,
            next_seq: 0,
            arch_regs: [0; 32],
            reg_producer: [None; 32],
            rob: VecDeque::with_capacity(cfg.rob_entries),
            fetch_pc: 0,
            arch_pc: 0,
            fetch_buffer: VecDeque::new(),
            fetch_stall_until: 0,
            fetch_parked: false,
            serialize_block: None,
            arch_ret_stack: Vec::new(),
            bp: TournamentPredictor::new(),
            btb: Btb::new(cfg.btb_entries),
            ras: Ras::new(cfg.ras_entries),
            icache: Cache::new(cfg.l1i.clone()),
            dcache: Cache::new(cfg.l1d.clone()),
            l2: Cache::new(cfg.l2.clone()),
            itlb: Tlb::new(cfg.itlb_entries),
            dtlb: Tlb::new(cfg.dtlb_entries),
            dram: Dram::new(cfg.dram.clone()),
            mem: Memory::new(cfg.kernel_base),
            stats: PipelineStats::default(),
            rdrand_busy_until: 0,
            rng_state: 0x243F_6A88_85A3_08D3,
            halted: false,
            committed_since_sample: 0,
            unresolved_ctrl: Vec::new(),
            stride_table: vec![(0, 0, 0); 256],
            sched: cfg.scheduler,
            ring_mask: ring as u64 - 1,
            deps_pending: vec![0; ring],
            waiter_head: vec![EDGE_NONE; ring],
            edge_next: vec![EDGE_NONE; ring * 2],
            edge_consumer: vec![0; ring * 2],
            edge_linked: vec![false; ring * 2],
            ready: BinaryHeap::with_capacity(ring),
            ready_skipped: Vec::with_capacity(64),
            events: BinaryHeap::with_capacity(ring),
            clean_watermark: 0,
            num_waiting: 0,
            num_not_done: 0,
            loads_in_flight: 0,
            stores_in_flight: 0,
            producers_in_flight: 0,
            store_seqs: VecDeque::with_capacity(cfg.sq_entries),
            load_seqs: VecDeque::with_capacity(cfg.lq_entries),
            sched_counters: SchedCounters::default(),
            dev,
            dma_stole_port: false,
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Pipeline statistics so far.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// L1 instruction cache.
    pub fn icache(&self) -> &Cache {
        &self.icache
    }

    /// L1 data cache.
    pub fn dcache(&self) -> &Cache {
        &self.dcache
    }

    /// Shared L2.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Data TLB.
    pub fn dtlb(&self) -> &Tlb {
        &self.dtlb
    }

    /// Instruction TLB.
    pub fn itlb(&self) -> &Tlb {
        &self.itlb
    }

    /// DRAM device (activation counts, Rowhammer flips, ...).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Backing memory (for harnesses to plant/verify data).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable backing memory.
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Scheduler activity tallies (event-heap/ready-heap pushes and peak
    /// depths). All zero under [`SchedulerKind::Scan`].
    pub fn sched_counters(&self) -> SchedCounters {
        self.sched_counters
    }

    /// Device-subsystem counters (timer fires, IRQ traffic, DMA activity),
    /// or `None` when [`crate::device::DeviceConfig`] is disabled.
    pub fn device_stats(&self) -> Option<&crate::device::DeviceStats> {
        self.dev.as_deref().map(|d| &d.stats)
    }

    /// Current mitigation mode.
    pub fn mitigation(&self) -> MitigationMode {
        self.mitigation
    }

    /// Switches the mitigation mode (the adaptive controller's lever).
    /// Applies to loads dispatched from now on.
    pub fn set_mitigation(&mut self, mode: MitigationMode) {
        self.mitigation = mode;
    }

    /// Reads an architectural register (post-run inspection).
    pub fn arch_reg(&self, r: Reg) -> u64 {
        self.arch_regs[r.index()]
    }

    // ------------------------------------------------------------------
    // Top-level run loops
    // ------------------------------------------------------------------

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
        // Hard cycle ceiling so a wedged configuration cannot hang the host.
        let cycle_budget = max_instrs.saturating_mul(200).max(100_000);
        SampledCursor {
            start_committed,
            start_cycle: self.cycle,
            cycle_budget,
            max_instrs,
            sample_interval,
            warmup_instrs: schedule.warmup_instrs,
            detail_instrs: schedule.detail_instrs,
            detail_left: 0,
            prev_vec,
            done: false,
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

    /// Drains all in-flight (speculative) pipeline state and rolls fetch
    /// back to the architectural pc, preserving the halted flag. After a
    /// quiesce the core's observable state is purely architectural +
    /// warm-microarchitectural — the precondition for [`Cpu::snapshot`] and
    /// [`Cpu::fast_forward`]. Quiescing an already-quiet core is a no-op in
    /// effect (idempotent at a given cycle).
    pub fn quiesce(&mut self) {
        let halted = self.halted;
        let pc = self.arch_pc;
        self.reset_front_end_at(pc);
        self.halted = halted;
    }

    fn reset_front_end_at(&mut self, pc: usize) {
        self.fetch_pc = pc;
        self.fetch_buffer.clear();
        self.rob.clear();
        self.reg_producer = [None; 32];
        self.serialize_block = None;
        self.halted = false;
        self.fetch_parked = false;
        self.fetch_stall_until = self.cycle;
        self.unresolved_ctrl.clear();
        self.ready.clear();
        self.ready_skipped.clear();
        self.events.clear();
        for h in &mut self.waiter_head {
            *h = EDGE_NONE;
        }
        for l in &mut self.edge_linked {
            *l = false;
        }
        self.num_waiting = 0;
        self.num_not_done = 0;
        self.loads_in_flight = 0;
        self.stores_in_flight = 0;
        self.producers_in_flight = 0;
        self.store_seqs.clear();
        self.load_seqs.clear();
        // Seqs are not reset across runs; nothing older than the next
        // dispatch is in flight, so everything "older" counts as clean.
        self.clean_watermark = self.next_seq;
    }

    /// Advances the core one cycle.
    fn step_cycle(&mut self, program: &Program) {
        self.cycle += 1;
        self.stats.cycles += 1;
        if !self.unresolved_ctrl.is_empty() {
            self.stats.spec_window_cycles += 1;
        }
        if self.dev.is_some() {
            self.device_stage(program);
        }
        self.commit_stage(program);
        if self.halted {
            return;
        }
        match self.sched {
            SchedulerKind::Scan => {
                self.complete_stage_scan();
                self.issue_stage_scan();
            }
            SchedulerKind::EventDriven => {
                self.complete_stage_event();
                self.issue_stage_event();
            }
        }
        self.dispatch_stage();
        self.fetch_stage(program);
    }

    // ------------------------------------------------------------------
    // Device stage (timer / interrupt controller / DMA)
    // ------------------------------------------------------------------

    /// Advances the asynchronous devices one cycle: timer fire, DMA burst
    /// (real memory traffic plus a stolen memory-issue port), pending
    /// pressure, and at most one IRQ delivery. Runs at the top of
    /// `step_cycle`, before commit, and touches only scheduler-shared state
    /// (memory system, squash primitive), so Scan and event-driven cores
    /// stay bit-identical with devices enabled too.
    fn device_stage(&mut self, program: &Program) {
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
            self.squash_from(first, handler, false);
            self.arch_pc = handler;
        }
        self.dev = Some(dev);
    }

    /// Fires due timer/DMA events at the current cycle: raises pending
    /// vectors and performs the DMA line copies through the real memory
    /// system (so the engine's traffic perturbs caches and DRAM exactly
    /// like core traffic would). Returns `true` on a DMA burst cycle —
    /// the detailed caller charges the stolen memory port.
    fn device_advance_events(&mut self, dev: &mut crate::device::DeviceState) -> bool {
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
            let src = crate::device::DMA_SRC_BASE + line * crate::device::DMA_LINE_BYTES;
            let dst = crate::device::DMA_DST_BASE + line * crate::device::DMA_LINE_BYTES;
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
    fn device_deliver(
        dev: &mut crate::device::DeviceState,
        program: &Program,
        arch_pc: usize,
    ) -> Option<usize> {
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

    /// Functional-path device tick for [`Cpu::fast_forward`]: identical
    /// event logic to [`Cpu::device_stage`] minus the pipeline flush and
    /// the port steal (the functional path has neither a pipeline nor an
    /// issue stage).
    fn device_tick_functional(&mut self, program: &Program) {
        let mut dev = self.dev.take().expect("tick requires devices");
        let _ = self.device_advance_events(&mut dev);
        if let Some(handler) = Self::device_deliver(&mut dev, program, self.arch_pc) {
            self.arch_pc = handler;
        }
        self.dev = Some(dev);
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    fn fetch_stage(&mut self, program: &Program) {
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
                    match self.ras.pop() {
                        Some(addr) => {
                            predicted_next = addr;
                            used_ras = true;
                            self.stats.bp_used_ras += 1;
                        }
                        None => {
                            predicted_next = pc + 1;
                        }
                    }
                    ras_snap = Some(self.ras.snapshot());
                }
                Op::JmpInd { .. } => {
                    self.stats.fetch_branches += 1;
                    self.stats.bp_btb_lookups += 1;
                    match self.btb.lookup(pc) {
                        Some(t) => {
                            self.stats.bp_btb_hits += 1;
                            predicted_next = t;
                        }
                        None => {
                            // No prediction: fall through (and almost surely
                            // squash at resolve).
                            predicted_next = pc + 1;
                        }
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
    fn fetch_line_latency(&mut self, iaddr: u64) -> u32 {
        let mut extra = 0u32;
        if !self.itlb.access(iaddr, false) {
            extra += self.cfg.tlb_walk_latency;
        }
        let acc = self.icache.access(iaddr, false, self.cycle);
        if acc.hit {
            return extra;
        }
        let l2 = self.l2.access(iaddr, false, self.cycle);
        let miss_lat = if l2.hit {
            self.l2.config().hit_latency
        } else {
            let resp = self.dram.access(iaddr, AccessKind::Read, self.cycle);
            self.apply_flips_response(&resp);
            self.l2.fill(iaddr, false, false);
            self.l2.config().hit_latency + resp.latency
        };
        self.icache.fill(iaddr, false, false);
        self.icache
            .note_miss_latency(miss_lat as u64, self.cycle + miss_lat as u64);
        extra + miss_lat
    }

    fn apply_flips_response(&mut self, resp: &evax_dram::DramResponse) {
        if resp.flips.is_empty() {
            return;
        }
        let flips = resp.flips.clone();
        for flip in flips {
            let addr = self.dram.flip_address(&flip);
            let old = self.mem.read_u8(addr);
            self.mem.write_u8(addr, old ^ (1 << flip.bit));
        }
    }

    // ------------------------------------------------------------------
    // Dispatch (rename)
    // ------------------------------------------------------------------

    fn dispatch_stage(&mut self) {
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

    /// Recomputes the structural occupancies by scanning the ROB (the scan
    /// scheduler's per-cycle behavior; also the debug cross-check for the
    /// event scheduler's running counters).
    fn occupancy_scan(&self) -> (usize, usize, usize, usize) {
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

    // ------------------------------------------------------------------
    // Scheduling bookkeeping (both modes; see module docs)
    // ------------------------------------------------------------------

    /// Ring slot of a seq. The ring is at least `rob_entries` slots and ROB
    /// seqs are contiguous, so every in-flight seq maps to a unique slot.
    fn slot(&self, seq: u64) -> usize {
        (seq & self.ring_mask) as usize
    }

    /// ROB index of `seq`, or `None` if it is not in flight (committed,
    /// squashed, or a stale heap entry from a reused seq range).
    fn rob_index_of(&self, seq: u64) -> Option<usize> {
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
    fn push_ready(&mut self, seq: u64) {
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
    fn schedule_event(&mut self, at: u64, seq: u64, kind: u8) {
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
    fn entry_done(&mut self, seq: u64) {
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
    fn note_removed(&mut self, e: &RobEntry) {
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
    fn reblock_consumers_of(&mut self, producer_seq: u64) {
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

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------

    /// Reads the current value of source `r` of the entry at `idx`, using the
    /// producer captured at rename time. ROB seqs are contiguous, so the
    /// producer lookup is O(1). Returns `None` while the producer is in
    /// flight; a committed producer's value comes from the architectural
    /// file (in-order commit guarantees it is the right version).
    fn read_operand(&self, idx: usize, r: Reg) -> Option<u64> {
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

    fn operands_ready(&self, idx: usize) -> bool {
        let front = self.rob.front().expect("rob nonempty").seq;
        self.rob[idx].deps.iter().flatten().all(|&(_, pseq)| {
            pseq < front || self.rob[(pseq - front) as usize].state == EState::Done
        })
    }

    /// `true` if an unresolved control-flow instruction older than `seq` is
    /// in flight (the speculative shadow).
    fn oldest_unresolved_control_before(&self, seq: u64) -> bool {
        self.unresolved_ctrl.first().is_some_and(|&s| s < seq)
    }

    /// `true` if every instruction older than `seq` has finished executing
    /// *with a clean outcome*: an entry that is "done" but carries a pending
    /// fault or an unresolved assist will squash later — for serialization
    /// and Futuristic-model gating it does not count as completed (this is
    /// what lets fencing/InvisiSpec close the Meltdown/LVI windows).
    fn all_older_done(&mut self, seq: u64) -> bool {
        match self.sched {
            SchedulerKind::Scan => self.all_older_done_scan(seq),
            SchedulerKind::EventDriven => {
                let r = self.all_older_done_watermark(seq);
                debug_assert_eq!(r, self.all_older_done_scan(seq));
                r
            }
        }
    }

    fn all_older_done_scan(&self, seq: u64) -> bool {
        self.rob
            .iter()
            .take_while(|e| e.seq < seq)
            .all(|e| e.state == EState::Done && !e.fault && (!e.assisted || e.assist_handled))
    }

    /// Incremental form of [`Self::all_older_done_scan`]: the watermark only
    /// ever has to advance over each entry once (amortized O(1)); squash and
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

    /// Reference scan scheduler's issue stage: sweep the whole ROB in seq
    /// order, executing up to `issue_width` ready entries.
    fn issue_stage_scan(&mut self) {
        let mut issued = 0usize;
        // A DMA burst this cycle steals one of the four memory ports.
        let mut mem_issued = usize::from(self.dma_stole_port);
        let mut had_waiting = false;
        let mut i = 0;
        while i < self.rob.len() && issued < self.cfg.issue_width {
            if self.rob[i].state != EState::Waiting {
                i += 1;
                continue;
            }
            had_waiting = true;
            if !self.operands_ready(i) {
                i += 1;
                continue;
            }
            let seq = self.rob[i].seq;
            let op = self.rob[i].op;
            // Serializing ops execute only when everything older is done.
            if op.is_serializing() && !self.all_older_done(seq) {
                i += 1;
                continue;
            }
            // Mitigation gating for loads.
            if matches!(op, Op::Load { .. }) {
                if mem_issued >= 4 {
                    i += 1;
                    continue;
                }
                let shadowed = self.oldest_unresolved_control_before(seq);
                let mitigation = self.mitigation;
                match mitigation {
                    MitigationMode::FenceSpectre if shadowed => {
                        i += 1;
                        continue;
                    }
                    MitigationMode::FenceFuturistic if !self.all_older_done(seq) => {
                        i += 1;
                        continue;
                    }
                    _ => {}
                }
            }
            if matches!(
                op,
                Op::Store { .. } | Op::Flush { .. } | Op::Prefetch { .. }
            ) && mem_issued >= 4
            {
                i += 1;
                continue;
            }
            self.execute_entry(i);
            if op.is_memory() {
                mem_issued += 1;
            }
            issued += 1;
            self.stats.iq_issued_insts += 1;
            i += 1;
        }
        if had_waiting && issued == 0 {
            self.stats.iq_operand_stall_cycles += 1;
        }
    }

    /// Event-driven issue: pop ready candidates in seq order (identical to
    /// the scan's index order over eligible entries), validate lazily, and
    /// apply the exact gating sequence of the scan scheduler. Candidates
    /// rejected by *gating* (ports, serialization, fencing) stay ready and
    /// are re-queued for the next cycle; stale candidates (squashed,
    /// already executed, or re-blocked by exposure) are dropped.
    fn issue_stage_event(&mut self) {
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
            // Gating, in the scan scheduler's exact order.
            if op.is_serializing() && !self.all_older_done(seq) {
                self.ready_skipped.push(seq);
                continue;
            }
            if matches!(op, Op::Load { .. }) {
                if mem_issued >= 4 {
                    self.ready_skipped.push(seq);
                    continue;
                }
                let shadowed = self.oldest_unresolved_control_before(seq);
                let mitigation = self.mitigation;
                match mitigation {
                    MitigationMode::FenceSpectre if shadowed => {
                        self.ready_skipped.push(seq);
                        continue;
                    }
                    MitigationMode::FenceFuturistic if !self.all_older_done(seq) => {
                        self.ready_skipped.push(seq);
                        continue;
                    }
                    _ => {}
                }
            }
            if matches!(
                op,
                Op::Store { .. } | Op::Flush { .. } | Op::Prefetch { .. }
            ) && mem_issued >= 4
            {
                self.ready_skipped.push(seq);
                continue;
            }
            self.execute_entry(idx);
            if op.is_memory() {
                mem_issued += 1;
            }
            issued += 1;
            self.stats.iq_issued_insts += 1;
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

    fn execute_entry(&mut self, idx: usize) {
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
            Op::Nop | Op::Halt | Op::Jmp { .. } | Op::Call { .. } => {}
            Op::Fence => {
                self.stats.commit_membars += 0; // counted at commit
            }
            Op::Li { imm, .. } => result = imm,
            Op::Alu {
                op: a,
                a: ra,
                b: rb,
                ..
            } => {
                let va = self.read_operand(idx, ra).expect("ready");
                let vb = self.read_operand(idx, rb).expect("ready");
                result = a.eval(va, vb);
                latency = a.latency();
            }
            Op::AluImm {
                op: a, a: ra, imm, ..
            } => {
                let va = self.read_operand(idx, ra).expect("ready");
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
                // xorshift64* for a deterministic "random" value.
                self.rng_state ^= self.rng_state >> 12;
                self.rng_state ^= self.rng_state << 25;
                self.rng_state ^= self.rng_state >> 27;
                result = self.rng_state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            }
            Op::Syscall => {
                latency = self.cfg.syscall_latency;
            }
            Op::Branch { cond, a, b, target } => {
                let va = self.read_operand(idx, a).expect("ready");
                let vb = self.read_operand(idx, b).expect("ready");
                let taken = cond.eval(va, vb);
                result = taken as u64;
                let actual_next = if taken { target } else { pc + 1 };
                self.rob[idx].result = result;
                self.resolve_control(idx, actual_next, taken);
            }
            Op::JmpInd { base } => {
                let target = self.read_operand(idx, base).expect("ready") as usize;
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
                let addr = self
                    .read_operand(idx, base)
                    .expect("ready")
                    .wrapping_add(offset as u64);
                let (value, lat) = self.execute_load(idx, addr);
                result = value;
                latency = lat;
            }
            Op::Store { src, base, offset } => {
                let addr = self
                    .read_operand(idx, base)
                    .expect("ready")
                    .wrapping_add(offset as u64);
                let data = self.read_operand(idx, src).expect("ready");
                self.rob[idx].eff_addr = Some(addr);
                self.rob[idx].store_data = Some(data);
                self.stats.iew_exec_store_insts += 1;
                self.check_order_violation(idx, addr);
                if self.mem.is_privileged(addr) {
                    self.rob[idx].fault = true;
                }
            }
            Op::Flush { base, offset } => {
                let addr = self
                    .read_operand(idx, base)
                    .expect("ready")
                    .wrapping_add(offset as u64);
                self.rob[idx].eff_addr = Some(addr);
                self.dcache.flush_line(addr);
                self.l2.flush_line(addr);
                latency = 4;
            }
            Op::Prefetch { base, offset } => {
                let addr = self
                    .read_operand(idx, base)
                    .expect("ready")
                    .wrapping_add(offset as u64);
                self.rob[idx].eff_addr = Some(addr);
                // Prefetches never fault (Meltdown step 2 relies on this).
                if !self.dtlb.access(addr, false) {
                    // charge nothing to the core; the walk is off the
                    // critical path for prefetches
                }
                if !self.dcache.contains(addr) {
                    let l2hit = self.l2.access(addr, false, self.cycle).hit;
                    if !l2hit {
                        let resp = self.dram.access(addr, AccessKind::Read, self.cycle);
                        self.apply_flips_response(&resp);
                        self.l2.fill(addr, false, true);
                    }
                    self.dcache.fill(addr, false, true);
                }
                latency = 1;
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
        // Youngest older matching store wins. The event scheduler walks the
        // (≤ SQEntries) in-flight store seqs; the scan reference sweeps the
        // whole ROB. Both visit the same stores in the same order.
        let mut forwarded: Option<u64> = None;
        match self.sched {
            SchedulerKind::Scan => {
                for e in self.rob.iter() {
                    if e.seq >= seq {
                        break;
                    }
                    if let Op::Store { .. } = e.op {
                        if e.eff_addr == Some(addr) {
                            if let Some(d) = e.store_data {
                                forwarded = Some(d);
                            }
                        }
                    }
                }
            }
            SchedulerKind::EventDriven => {
                let front = self.rob.front().expect("rob nonempty").seq;
                for &sseq in self.store_seqs.iter() {
                    if sseq >= seq {
                        break;
                    }
                    let e = &self.rob[(sseq - front) as usize];
                    if e.eff_addr == Some(addr) {
                        if let Some(d) = e.store_data {
                            forwarded = Some(d);
                        }
                    }
                }
            }
        }
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
            // the LVI / Fallout injection surface. Youngest older 4K-alias
            // wins; event mode walks the store seq list back to front.
            let alias = match self.sched {
                SchedulerKind::Scan => self
                    .rob
                    .iter()
                    .rfind(|e| {
                        e.seq < seq
                            && matches!(e.op, Op::Store { .. })
                            && e.store_data.is_some()
                            && e.eff_addr
                                .map(|a| a & 0xFFF == addr & 0xFFF && a != addr)
                                .unwrap_or(false)
                    })
                    .and_then(|e| e.store_data),
                SchedulerKind::EventDriven => {
                    let front = self.rob.front().expect("rob nonempty").seq;
                    let mut found = None;
                    for &sseq in self.store_seqs.iter().rev() {
                        if sseq >= seq {
                            continue;
                        }
                        let e = &self.rob[(sseq - front) as usize];
                        if e.store_data.is_some()
                            && e.eff_addr
                                .map(|a| a & 0xFFF == addr & 0xFFF && a != addr)
                                .unwrap_or(false)
                        {
                            found = e.store_data;
                            break;
                        }
                    }
                    found
                }
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
                let l2acc = self.l2.access(addr, false, self.cycle);
                let miss_lat = if l2acc.hit {
                    self.cfg.l2.hit_latency
                } else {
                    let resp = self.dram.access(addr, AccessKind::Read, self.cycle);
                    self.apply_flips_response(&resp);
                    self.l2.fill(addr, false, false);
                    self.cfg.l2.hit_latency + resp.latency
                };
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

    /// Classic per-pc stride prefetcher: after two consecutive accesses with
    /// the same stride, fetch the next line ahead into L1D. Prefetches are
    /// visible cache state — which is exactly why hardware prefetchers are
    /// themselves a side-channel surface.
    fn stride_prefetch(&mut self, pc: usize, addr: u64) {
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
            if !self.mem.is_privileged(target) && !self.dcache.contains(target) {
                if !self.l2.contains(target) {
                    let resp = self.dram.access(target, AccessKind::Read, self.cycle);
                    self.apply_flips_response(&resp);
                    self.l2.fill(target, false, true);
                }
                self.dcache.fill(target, false, true);
            }
        }
    }

    /// A store's address became known: any younger load already executed to
    /// the same address read stale data — memory-order violation.
    fn check_order_violation(&mut self, store_idx: usize, addr: u64) {
        let store_seq = self.rob[store_idx].seq;
        // Oldest younger executed load to the same address; event mode walks
        // the (≤ LQEntries) in-flight load seqs instead of the whole ROB.
        let violator = match self.sched {
            SchedulerKind::Scan => self
                .rob
                .iter()
                .find(|e| {
                    e.seq > store_seq
                        && e.executed_load
                        && e.state != EState::Waiting
                        && e.eff_addr == Some(addr)
                })
                .map(|e| (e.seq, e.pc)),
            SchedulerKind::EventDriven => {
                let front = self.rob.front().expect("rob nonempty").seq;
                let mut found = None;
                for &lseq in self.load_seqs.iter() {
                    if lseq <= store_seq {
                        continue;
                    }
                    let e = &self.rob[(lseq - front) as usize];
                    if e.executed_load && e.state != EState::Waiting && e.eff_addr == Some(addr) {
                        found = Some((e.seq, e.pc));
                        break;
                    }
                }
                found
            }
        };
        if let Some((vseq, vpc)) = violator {
            self.stats.iew_mem_order_violations += 1;
            self.stats.lsq_ignored_responses += 1;
            self.squash_younger_than(vseq - 1, vpc, true);
        }
    }

    // ------------------------------------------------------------------
    // Completion / resolution
    // ------------------------------------------------------------------

    /// Reference scan scheduler's completion stage: sweep every entry in
    /// seq order, retiring due executions and firing due assist replays.
    fn complete_stage_scan(&mut self) {
        let mut idx = 0;
        while idx < self.rob.len() {
            if self.rob[idx].state == EState::Executing && self.rob[idx].done_at <= self.cycle {
                self.rob[idx].state = EState::Done;
                let seq = self.rob[idx].seq;
                self.entry_done(seq);
            }
            {
                // Assisted (LVI) load replay: once the slow translation
                // resolves, squash consumers and fix the value.
                if self.rob[idx].state == EState::Done
                    && self.rob[idx].assisted
                    && !self.rob[idx].assist_handled
                    && self.cycle >= self.rob[idx].assist_replay_at
                {
                    self.rob[idx].assist_handled = true;
                    let seq = self.rob[idx].seq;
                    let pc = self.rob[idx].pc;
                    let addr = self.rob[idx].eff_addr.expect("load has addr");
                    let correct = self.mem.read_u64(addr);
                    self.stats.lsq_rescheduled_loads += 1;
                    self.stats.lsq_ignored_responses += 1;
                    self.rob[idx].result = correct;
                    self.squash_younger_than(seq, pc + 1, true);
                }
            }
            idx += 1;
        }
        // Assisted loads finish instantly in this model (latency 2), so the
        // replay above usually runs within a couple of cycles — inside the
        // transient window their consumers already left footprints.
    }

    /// Event-driven completion: pop due events in `(cycle, seq, kind)`
    /// order — exactly the order the scan sweep observes them (seq order,
    /// completion before replay for one entry) — and validate each against
    /// the entry's current state, so events orphaned by squash or seq reuse
    /// are dropped.
    fn complete_stage_event(&mut self) {
        while let Some(&Reverse((at, _, _))) = self.events.peek() {
            if at > self.cycle {
                break;
            }
            let Reverse((at, seq, kind)) = self.events.pop().expect("peeked");
            let Some(idx) = self.rob_index_of(seq) else {
                continue;
            };
            if kind == EV_COMPLETE {
                // `done_at` must still match: exposure reschedules the
                // completion, orphaning the original event.
                if self.rob[idx].state == EState::Executing && self.rob[idx].done_at == at {
                    self.rob[idx].state = EState::Done;
                    self.entry_done(seq);
                }
            } else {
                debug_assert_eq!(kind, EV_ASSIST_REPLAY);
                let fire = {
                    let e = &self.rob[idx];
                    e.state == EState::Done
                        && e.assisted
                        && !e.assist_handled
                        && e.done_at.max(e.assist_replay_at) == at
                };
                if fire {
                    // Mirror of the scan scheduler's replay block.
                    self.rob[idx].assist_handled = true;
                    let pc = self.rob[idx].pc;
                    let addr = self.rob[idx].eff_addr.expect("load has addr");
                    let correct = self.mem.read_u64(addr);
                    self.stats.lsq_rescheduled_loads += 1;
                    self.stats.lsq_ignored_responses += 1;
                    self.rob[idx].result = correct;
                    self.squash_younger_than(seq, pc + 1, true);
                }
            }
        }
    }

    /// Resolves a control instruction at `idx` with the actual next pc.
    fn resolve_control(&mut self, idx: usize, actual_next: usize, taken: bool) {
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
            self.squash_younger_than(seq, actual_next, false);
        }
    }

    /// Squashes every instruction with `seq > keep_seq`, redirecting fetch to
    /// `new_pc`. `replay` marks replay-style squashes (order violations /
    /// assists) for counter purposes.
    fn squash_younger_than(&mut self, keep_seq: u64, new_pc: usize, replay: bool) {
        self.squash_from(keep_seq + 1, new_pc, replay);
    }

    /// Squashes every instruction with `seq >= first_squashed`, redirecting
    /// fetch to `new_pc`. The half-open form is the primitive: faults and
    /// IRQ delivery flush *from the head seq*, which the keep-based wrapper
    /// cannot express when the head is seq 0. With nothing in flight at or
    /// above `first_squashed` this reduces to a pure fetch redirect (plus
    /// the 2-cycle penalty).
    fn squash_from(&mut self, first_squashed: u64, new_pc: usize, replay: bool) {
        let _ = replay;
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

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn commit_stage(&mut self, program: &Program) {
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

            // Ret resolves at commit against the architectural return stack.
            if matches!(head_op, Op::Ret) && !head_resolved {
                let predicted = head_predicted_next;
                let seq = head_seq;
                let actual = self.arch_ret_stack.pop().unwrap_or(head_pc + 1);
                let head_mut = self.rob.front_mut().expect("head");
                head_mut.resolved = true;
                // Record the actual return target as the (otherwise unused)
                // result so commit can track the architectural pc.
                head_mut.result = actual as u64;
                self.unresolved_ctrl.retain(|&s| s != seq);
                if predicted != actual {
                    self.stats.iew_branch_mispredicts += 1;
                    self.stats.bp_ras_incorrect += 1;
                    // Commit the ret itself, then squash everything younger.
                    self.finish_commit_of_head(program);
                    self.squash_younger_than(seq, actual, false);
                    continue;
                }
            }

            // IRet resolves at commit against the interrupt controller's
            // latched return pc. With no service routine active (a stray
            // IRet, or devices disabled) it falls through — a slow no-op,
            // never undefined control flow.
            if matches!(head_op, Op::IRet) && !head_resolved {
                let predicted = head_predicted_next;
                let seq = head_seq;
                let actual = match self.dev.as_deref_mut() {
                    Some(dev) if dev.irq_in_service => {
                        dev.irq_in_service = false;
                        dev.stats.irq_returns += 1;
                        dev.irq_return_pc
                    }
                    _ => head_pc + 1,
                };
                let head_mut = self.rob.front_mut().expect("head");
                head_mut.resolved = true;
                // Record the return target as the (otherwise unused) result
                // so commit can track the architectural pc.
                head_mut.result = actual as u64;
                self.unresolved_ctrl.retain(|&s| s != seq);
                if predicted != actual {
                    self.stats.iew_branch_mispredicts += 1;
                    // Commit the iret itself, then squash everything younger
                    // (wrong-path fall-through fetched past the handler).
                    self.finish_commit_of_head(program);
                    self.squash_younger_than(seq, actual, false);
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
                self.squash_from(head_seq, handler, false);
                debug_assert!(self.rob.is_empty(), "fault squash empties the ROB");
                continue;
            }

            self.finish_commit_of_head(program);
            if self.halted {
                break;
            }
        }
    }

    /// Retires the ROB head architecturally.
    fn finish_commit_of_head(&mut self, _program: &Program) {
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
                let acc = self.dcache.access(addr, true, self.cycle);
                if !acc.hit {
                    let l2acc = self.l2.access(addr, true, self.cycle);
                    if !l2acc.hit {
                        let resp = self.dram.access(addr, AccessKind::Write, self.cycle);
                        self.apply_flips_response(&resp);
                        self.l2.fill(addr, true, false);
                    }
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
            Op::Call { target: _ } => {
                self.stats.commit_branches += 1;
                self.arch_ret_stack.push(e.pc + 1);
            }
            Op::Ret => {
                self.stats.commit_branches += 1;
                // Stack already popped during resolution.
            }
            Op::IRet => {
                self.stats.commit_branches += 1;
                // Service-routine state already cleared during resolution.
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
    fn kernel_noise(&mut self) {
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

    /// Deterministically perturbs the internal RNG (used by workloads that
    /// want run-to-run variation under an external seed).
    pub fn reseed(&mut self, rng: &mut impl Rng) {
        self.rng_state = rng.gen::<u64>() | 1;
    }

    // ------------------------------------------------------------------
    // Functional fast-forward
    // ------------------------------------------------------------------

    /// The architectural (committed) program counter.
    pub fn arch_pc(&self) -> usize {
        self.arch_pc
    }

    /// Retires up to `max_instrs` instructions on the **functional** path:
    /// architectural state (registers, memory, return stack, RNG, arch pc)
    /// is updated exactly as the detailed core would at commit, while
    /// caches, TLBs, the branch predictor, BTB, RAS and DRAM are warmed by
    /// touch — no out-of-order pipeline, no speculation, no wrong-path
    /// execution. Cycle accounting is approximate (one cycle per
    /// instruction plus memory latencies).
    ///
    /// The core is quiesced first (in-flight speculative work discarded).
    /// Running off the end of the program stops without halting; committing
    /// `Halt` sets the halted flag. Returns the number of instructions
    /// retired.
    ///
    /// `stats.committed_insts` advances (so instruction budgets account for
    /// warm-up) but `committed_since_sample` does not: sampling windows
    /// never close inside a fast-forward phase.
    pub fn fast_forward(&mut self, program: &Program, max_instrs: u64) -> u64 {
        self.quiesce();
        let iline_shift = self.cfg.l1i.line.trailing_zeros();
        let mut last_iline = u64::MAX;
        let mut retired = 0u64;
        while retired < max_instrs && !self.halted {
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
                    self.rng_state ^= self.rng_state >> 12;
                    self.rng_state ^= self.rng_state << 25;
                    self.rng_state ^= self.rng_state >> 27;
                    let v = self.rng_state.wrapping_mul(0x2545_F491_4F6C_DD1D);
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
                Op::IRet => {
                    next_pc = match self.dev.as_deref_mut() {
                        Some(dev) if dev.irq_in_service => {
                            dev.irq_in_service = false;
                            dev.stats.irq_returns += 1;
                            dev.irq_return_pc
                        }
                        // Stray IRet (or devices disabled): fall through.
                        _ => pc + 1,
                    };
                }
                Op::Load { dst, base, offset } => {
                    let addr = self.arch_regs[base.index()].wrapping_add(offset as u64);
                    extra += self.touch_data(addr, false);
                    if self.cfg.stride_prefetcher {
                        self.stride_prefetch(pc, addr);
                    }
                    if self.mem.is_privileged(addr) {
                        // Architectural fault: no destination write, redirect
                        // to the handler (next instruction if none).
                        next_pc = program.fault_handler().unwrap_or(pc + 1);
                    } else {
                        let v = self.mem.read_u64(addr);
                        self.write_arch_reg(dst, v);
                    }
                }
                Op::Store { src, base, offset } => {
                    let addr = self.arch_regs[base.index()].wrapping_add(offset as u64);
                    if self.mem.is_privileged(addr) {
                        next_pc = program.fault_handler().unwrap_or(pc + 1);
                    } else {
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
                    // Prefetches never fault; mirror the detailed core's
                    // prefetched-line fill chain.
                    let _ = self.dtlb.access(addr, false);
                    if !self.dcache.contains(addr) {
                        if !self.l2.contains(addr) {
                            let resp = self.dram.access(addr, AccessKind::Read, self.cycle);
                            self.apply_flips_response(&resp);
                            self.l2.fill(addr, false, true);
                        }
                        self.dcache.fill(addr, false, true);
                    }
                }
                Op::Halt => {
                    self.halted = true;
                }
            }
            self.arch_pc = next_pc;
            self.cycle += 1 + extra;
            self.stats.cycles += 1 + extra;
            self.stats.committed_insts += 1;
            retired += 1;
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
            let l2acc = self.l2.access(addr, write, self.cycle);
            let miss_lat = if l2acc.hit {
                self.cfg.l2.hit_latency
            } else {
                let kind = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let resp = self.dram.access(addr, kind, self.cycle);
                self.apply_flips_response(&resp);
                self.l2.fill(addr, write, false);
                self.cfg.l2.hit_latency + resp.latency
            };
            self.dcache.fill(addr, write, false);
            lat += (acc.latency + miss_lat) as u64;
        }
        lat
    }

    // ------------------------------------------------------------------
    // Snapshot / restore
    // ------------------------------------------------------------------

    /// Captures a checkpoint of this core: architectural state plus warm
    /// microarchitectural state (caches, TLBs, branch predictor, BTB, RAS,
    /// DRAM disturbance state, pipeline statistics).
    ///
    /// The core is **quiesced** first: in-flight speculative pipeline work
    /// is discarded and fetch rolls back to the architectural pc, so the
    /// snapshot needs no ROB/LSQ serialization and a restored core is
    /// exactly this core post-quiesce.
    pub fn snapshot(&mut self) -> crate::snapshot::Snapshot {
        self.quiesce();
        let mut cpu_words = Vec::new();
        self.save_state_words(&mut cpu_words);
        crate::snapshot::Snapshot {
            config_fingerprint: crate::snapshot::config_fingerprint(&self.cfg),
            cpu_words,
            cursor_words: None,
        }
    }

    /// [`Cpu::snapshot`] plus the state of an in-flight [`SampledCursor`],
    /// so an interrupted sampled run can resume mid-stream with
    /// [`Cpu::restore_with_cursor`].
    pub fn snapshot_with_cursor(&mut self, cursor: &SampledCursor) -> crate::snapshot::Snapshot {
        let mut snap = self.snapshot();
        let mut cursor_words = Vec::new();
        cursor.save_state(&mut cursor_words);
        snap.cursor_words = Some(cursor_words);
        snap
    }

    /// Rebuilds a core from a snapshot taken under an equal configuration.
    ///
    /// # Errors
    /// [`SnapshotError::ConfigMismatch`] if `cfg` does not fingerprint-match
    /// the snapshot; [`SnapshotError::Malformed`] if the payload is
    /// truncated or structurally invalid.
    ///
    /// [`SnapshotError::ConfigMismatch`]: crate::snapshot::SnapshotError::ConfigMismatch
    /// [`SnapshotError::Malformed`]: crate::snapshot::SnapshotError::Malformed
    pub fn restore(
        cfg: CpuConfig,
        snap: &crate::snapshot::Snapshot,
    ) -> Result<Cpu, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let expected = crate::snapshot::config_fingerprint(&cfg);
        if expected != snap.config_fingerprint {
            return Err(SnapshotError::ConfigMismatch {
                expected,
                got: snap.config_fingerprint,
            });
        }
        let mut cpu = Cpu::new(cfg);
        let mut w = snap.cpu_words.iter();
        cpu.load_state_words(&mut w)
            .ok_or(SnapshotError::Malformed {
                what: "cpu state words",
            })?;
        if w.next().is_some() {
            return Err(SnapshotError::Malformed {
                what: "trailing cpu state words",
            });
        }
        Ok(cpu)
    }

    /// [`Cpu::restore`] plus the [`SampledCursor`] recorded by
    /// [`Cpu::snapshot_with_cursor`].
    ///
    /// # Errors
    /// As [`Cpu::restore`]; additionally `Malformed` when the snapshot has
    /// no cursor section or the cursor payload is invalid.
    pub fn restore_with_cursor(
        cfg: CpuConfig,
        snap: &crate::snapshot::Snapshot,
    ) -> Result<(Cpu, SampledCursor), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let cpu = Cpu::restore(cfg, snap)?;
        let cursor_words = snap.cursor_words.as_ref().ok_or(SnapshotError::Malformed {
            what: "snapshot has no cursor section",
        })?;
        let mut w = cursor_words.iter();
        let expected_dim = crate::hpc::dim_for(cpu.config());
        let cursor =
            SampledCursor::load_state(&mut w, expected_dim).ok_or(SnapshotError::Malformed {
                what: "cursor state words",
            })?;
        if w.next().is_some() {
            return Err(SnapshotError::Malformed {
                what: "trailing cursor state words",
            });
        }
        Ok((cpu, cursor))
    }

    /// Serializes the quiesced core into a word stream: scalars, then each
    /// component in a fixed order. `sched_counters` is intentionally not
    /// serialized — it is pure observability (never feeds back into
    /// scheduling) and restarts from zero in a restored core.
    fn save_state_words(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(&[
            self.cycle,
            self.next_seq,
            self.arch_pc as u64,
            self.halted as u64,
            self.committed_since_sample,
            self.rng_state,
            self.rdrand_busy_until,
            mitigation_index(self.mitigation),
        ]);
        out.extend_from_slice(&self.arch_regs);
        out.push(self.arch_ret_stack.len() as u64);
        for &a in &self.arch_ret_stack {
            out.push(a as u64);
        }
        for &(last, stride, conf) in &self.stride_table {
            out.extend_from_slice(&[last, stride as u64, conf as u64]);
        }
        self.stats.save_state(out);
        self.bp.save_state(out);
        self.btb.save_state(out);
        self.ras.save_state(out);
        self.icache.save_state(out);
        self.dcache.save_state(out);
        self.l2.save_state(out);
        self.itlb.save_state(out);
        self.dtlb.save_state(out);
        self.dram.save_state(out);
        self.mem.save_state(out);
        // Device words only exist when the subsystem is enabled; the config
        // fingerprint already separates enabled and disabled snapshots.
        if let Some(dev) = self.dev.as_deref() {
            dev.save_state(out);
        }
    }

    /// Restores state written by [`Cpu::save_state_words`] into a freshly
    /// constructed core, then re-quiesces the front end at the restored
    /// architectural pc. Returns `None` on a truncated or malformed stream.
    fn load_state_words(&mut self, w: &mut std::slice::Iter<'_, u64>) -> Option<()> {
        self.cycle = *w.next()?;
        self.next_seq = *w.next()?;
        let arch_pc = usize::try_from(*w.next()?).ok()?;
        let halted = match *w.next()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        self.committed_since_sample = *w.next()?;
        self.rng_state = *w.next()?;
        self.rdrand_busy_until = *w.next()?;
        self.mitigation = mitigation_from_index(*w.next()?)?;
        for r in &mut self.arch_regs {
            *r = *w.next()?;
        }
        let n = usize::try_from(*w.next()?).ok()?;
        self.arch_ret_stack.clear();
        for _ in 0..n {
            self.arch_ret_stack.push(usize::try_from(*w.next()?).ok()?);
        }
        for e in &mut self.stride_table {
            let last = *w.next()?;
            let stride = *w.next()? as i64;
            let conf = u8::try_from(*w.next()?).ok()?;
            if conf > 3 {
                return None;
            }
            *e = (last, stride, conf);
        }
        self.stats.load_state(w)?;
        self.bp.load_state(w)?;
        self.btb.load_state(w)?;
        self.ras.load_state(w)?;
        self.icache.load_state(w)?;
        self.dcache.load_state(w)?;
        self.l2.load_state(w)?;
        self.itlb.load_state(w)?;
        self.dtlb.load_state(w)?;
        self.dram.load_state(w)?;
        self.mem.load_state(w)?;
        if let Some(dev) = self.dev.as_deref_mut() {
            dev.load_state(w)?;
        }
        self.arch_pc = arch_pc;
        self.reset_front_end_at(arch_pc);
        self.halted = halted;
        Some(())
    }
}

/// Stable on-disk index of a [`MitigationMode`] (snapshot encoding).
fn mitigation_index(m: MitigationMode) -> u64 {
    match m {
        MitigationMode::None => 0,
        MitigationMode::FenceSpectre => 1,
        MitigationMode::FenceFuturistic => 2,
        MitigationMode::InvisiSpecSpectre => 3,
        MitigationMode::InvisiSpecFuturistic => 4,
    }
}

/// Inverse of [`mitigation_index`]; `None` for out-of-range values.
fn mitigation_from_index(i: u64) -> Option<MitigationMode> {
    Some(match i {
        0 => MitigationMode::None,
        1 => MitigationMode::FenceSpectre,
        2 => MitigationMode::FenceFuturistic,
        3 => MitigationMode::InvisiSpecSpectre,
        4 => MitigationMode::InvisiSpecFuturistic,
        _ => return None,
    })
}
