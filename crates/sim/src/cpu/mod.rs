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
//! # Stage modules
//!
//! The core is one [`Cpu`] whose `impl` is split by pipeline stage, in the
//! order `step_cycle` runs them: `devices` (timer, interrupt controller,
//! DMA), `commit`, `issue` (completion, issue gating, squash), `execute`
//! (instruction semantics, loads and the LSQ searches), `dispatch` (rename
//! plus the event scheduler's wakeup bookkeeping) and `frontend` (fetch).
//! `functional` is the fast-forward path, `checkpoint` the snapshot codec,
//! and `sampling` the HPC-sampled run loops.
//!
//! # Scheduling
//!
//! Two interchangeable scheduling cores drive `step_cycle`
//! ([`SchedulerKind`]). The **scan** scheduler is the golden reference: it
//! sweeps the whole ROB every cycle to complete and to issue, recounts ROB
//! occupancy at rename, and answers the clean-older, store-forwarding,
//! 4K-alias and order-violation queries by whole-ROB searches. All of it
//! lives in `scan`. The **event-driven** scheduler (per-entry dependency
//! counters, producer→consumer wakeup edges, a seq-ordered ready heap, a
//! time-ordered completion/replay event heap, and bounded load/store seq
//! lists) touches only entries with actual work. Both are bit-identical by
//! construction — ready candidates pop in seq order and events in
//! `(cycle, seq, kind)` order, matching the scan's index order, and both
//! run the same issue gating, replay, execute and squash code — and the
//! golden-equivalence tests plus debug assertions enforce it.

mod checkpoint;
mod commit;
mod devices;
mod dispatch;
mod execute;
mod frontend;
mod functional;
mod issue;
mod sampling;
mod scan;

pub use sampling::{HpcSample, SampleSchedule, SampledCursor, SampledStep};

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use evax_dram::{AccessKind, Dram};

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

/// `true` when store address `a` 4K-aliases load address `addr`: the low
/// 12 bits match but the addresses differ (the LVI/Fallout surface).
fn aliases_4k(a: u64, addr: u64) -> bool {
    a & 0xFFF == addr & 0xFFF && a != addr
}

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

    /// The architectural (committed) program counter.
    pub fn arch_pc(&self) -> usize {
        self.arch_pc
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
    // Memory-hierarchy chains shared by the stages
    // ------------------------------------------------------------------

    /// The demand-miss chain below an L1: an L2 access and, when L2 misses
    /// too, a DRAM access (applying any Rowhammer flips it causes) and an L2
    /// fill. Returns the miss latency the L1 sees.
    fn l2_demand_fill(&mut self, addr: u64, write: bool) -> u32 {
        if self.l2.access(addr, write, self.cycle).hit {
            return self.cfg.l2.hit_latency;
        }
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let resp = self.dram.access(addr, kind, self.cycle);
        self.apply_flips_response(&resp);
        self.l2.fill(addr, write, false);
        self.cfg.l2.hit_latency + resp.latency
    }

    /// The prefetch fill chain: a line absent from L1D is filled into L1D,
    /// and into L2 from DRAM when L2 lacks it too, both marked prefetched.
    /// Presence is probed without a demand access.
    fn prefetch_line(&mut self, addr: u64) {
        if self.dcache.contains(addr) {
            return;
        }
        if !self.l2.contains(addr) {
            let resp = self.dram.access(addr, AccessKind::Read, self.cycle);
            self.apply_flips_response(&resp);
            self.l2.fill(addr, false, true);
        }
        self.dcache.fill(addr, false, true);
    }

    /// Applies the Rowhammer bit flips a DRAM access caused to memory.
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
}
