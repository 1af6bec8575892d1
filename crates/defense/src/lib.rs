//! # evax-defense — the adaptive architecture (paper §VIII-A, Figs. 14–16)
//!
//! EVAX's end-to-end system runs the processor in *performance mode*
//! (mitigations off) and switches to *secure mode* — fencing or InvisiSpec,
//! under the Spectre or Futuristic threat model — for a fixed instruction
//! window whenever the hardware detector flags a sample. This cuts the
//! overhead of always-on mitigations by ~95% while keeping leakage at zero
//! for detected attacks.
//!
//! * [`adaptive`] — the detector-gated controller driving
//!   [`evax_sim::Cpu::set_mitigation`] from HPC samples. It is a
//!   [`evax_core::featurize::WindowSink`] on the unified streaming
//!   featurization pipeline — the deployment loop consumes the exact
//!   window→feature stage chain the detector was trained on.
//! * [`overhead`] — end-to-end overhead measurement: always-on vs. adaptive
//!   across the benign workload suite (Fig. 16's bars), plus IPC timelines
//!   (Fig. 14's series).
//! * [`fleet`] — the many-tenant deployment shape: thousands of interleaved
//!   tenant streams round-robin sharded over [`evax_core::par`], with
//!   detector inference batched across streams' pending windows (and
//!   optionally quantized to the paper's 9-bit integer hardware model).
//!
//! ## Example
//!
//! ```no_run
//! use evax_defense::adaptive::{AdaptiveConfig, Policy};
//! use evax_defense::overhead::overhead_suite;
//! use evax_core::pipeline::{EvaxConfig, EvaxPipeline};
//!
//! let pipeline = EvaxPipeline::run(&EvaxConfig::small(), 1);
//! let rows = overhead_suite(&pipeline, Policy::FenceSpectre, 7);
//! for row in rows {
//!     println!("{}: always-on {:.1}% vs adaptive {:.1}%",
//!         row.workload, row.always_on_overhead * 100.0, row.adaptive_overhead * 100.0);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod fleet;
pub mod overhead;

pub use adaptive::{
    run_adaptive, run_fixed, AdaptiveConfig, AdaptiveController, AdaptiveRun, Policy,
    SecureModeState,
};
pub use fleet::{
    run_fleet, run_fleet_with_model, FleetConfig, FleetReport, InferenceMode, StreamOutcome,
};
pub use overhead::{measure_workload, overhead_suite, OverheadRow};
