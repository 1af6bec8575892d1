//! # evax-sim — cycle-level out-of-order CPU simulator
//!
//! The EVAX paper's substrate is the gem5 O3CPU full-system simulator
//! (Table II configuration). With no gem5 bindings available, this crate is
//! a from-scratch Rust analog scoped to what EVAX actually needs:
//!
//! * a detailed **out-of-order pipeline** (fetch, rename/dispatch, issue,
//!   execute, commit) with a tournament branch predictor, BTB, RAS, ROB,
//!   load/store queues and register renaming;
//! * **transient-execution semantics**: wrong-path execution after branch,
//!   indirect-jump and return mispredictions; commit-time faults with
//!   transient data forwarding (Meltdown); assisted loads with 4K-aliasing
//!   store-buffer injection (LVI/MDS/Fallout); memory-order violations;
//! * a **memory hierarchy** (L1I/L1D/L2 with MSHRs, TLBs, DRAM with a
//!   Rowhammer corruption module) where speculative accesses leave real
//!   footprints — the side channel;
//! * **hardware performance counters**: 133 gem5-style named events
//!   flattened by [`hpc::hpc_vector`] and sampled every N committed
//!   instructions, feeding the detectors in `evax-core`;
//! * the paper's **mitigation modes** (fencing and InvisiSpec, each under
//!   the Spectre and Futuristic threat models) switchable at runtime by the
//!   adaptive controller in `evax-defense`.
//!
//! ## Example
//!
//! ```
//! use evax_sim::{Cpu, CpuConfig};
//! use evax_sim::isa::{ProgramBuilder, Reg, AluOp, Cond};
//!
//! // Sum 0..100.
//! let (acc, i, n) = (Reg::new(1), Reg::new(2), Reg::new(3));
//! let mut b = ProgramBuilder::new("sum");
//! b.li(acc, 0).li(i, 0).li(n, 100);
//! let top = b.label();
//! b.alu(AluOp::Add, acc, acc, i);
//! b.alu_imm(AluOp::Add, i, i, 1);
//! b.branch(Cond::Lt, i, n, top);
//! b.halt();
//!
//! let mut cpu = Cpu::new(CpuConfig::default());
//! let result = cpu.run(&b.build(), 10_000);
//! assert!(result.halted);
//! assert_eq!(result.regs[1], (0..100).sum::<u64>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod cache;
pub mod config;
pub mod cpu;
pub mod device;
pub mod energy;
pub mod hpc;
pub mod isa;
pub mod memory;
pub mod schema;
pub mod snapshot;
pub mod stats;
pub mod tlb;

pub use cache::Cache;
pub use config::{CacheConfig, CpuConfig, MitigationMode, SchedulerKind};
pub use cpu::{Cpu, HpcSample, RunResult, SampleSchedule, SampledCursor, SampledStep};
pub use device::{
    DeviceConfig, DeviceConfigBuilder, DeviceStats, DmaConfig, TimerConfig, DEVICE_DIM,
    DEVICE_NAMES, DMA_DST_BASE, DMA_LINE_BYTES, DMA_SRC_BASE, NUM_IRQ_VECTORS,
};
pub use energy::{EnergyWeights, SensorConfig, SensorConfigBuilder, ENERGY_DIM, ENERGY_NAMES};
pub use hpc::{dim_for, for_each_hpc, hpc_index, hpc_vector, hpc_vector_into, HPC_BASE_DIM};
pub use isa::{Program, ProgramBuilder};
pub use schema::{FeatureSchema, Modality};
pub use snapshot::{Snapshot, SnapshotError};
pub use stats::PipelineStats;
