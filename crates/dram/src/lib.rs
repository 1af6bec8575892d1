//! # evax-dram — DRAM timing + Rowhammer disturbance model
//!
//! The EVAX paper evaluates on gem5 coupled with the Ramulator DRAM simulator,
//! extended with "a dedicated memory corruption module" so that Rowhammer
//! attacks actually flip bits (paper §VII, *Attack Generation in gem5*):
//! it tracks the neighbours of each row, counts activations per row since the
//! last refresh, assigns a bit-flip threshold to each row, and corrupts the
//! affected cells when the threshold is exceeded.
//!
//! This crate is that substrate, built from scratch: a bank/row-buffer timing
//! model (open-page policy, tRCD/tRP/tCAS), periodic refresh, a write queue
//! that can service reads (the `bytesReadWrQ` counter EVAX's DRAMA/TRRespass
//! detection keys on), and the Rowhammer disturbance module.
//!
//! ## Example
//!
//! ```
//! use evax_dram::{Dram, DramConfig, AccessKind};
//!
//! let mut dram = Dram::new(DramConfig::default());
//! let r1 = dram.access(0x0, AccessKind::Read, 0);
//! // Next cache line in the same bank and row (lines interleave across banks).
//! let next = 64 * dram.config().banks as u64;
//! let r2 = dram.access(next, AccessKind::Read, r1.latency as u64);
//! // Second access hits the open row buffer and is faster.
//! assert!(r2.row_hit && r2.latency < r1.latency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod corruption;
pub mod dram;
pub mod state;
pub mod stats;

pub use config::DramConfig;
pub use corruption::{BitFlip, CorruptionModule};
pub use dram::{AccessKind, Dram, DramResponse};
pub use stats::DramStats;
