//! # evax-bench — the experiment harness
//!
//! One function per table/figure of the EVAX paper's evaluation. Each
//! regenerates its artifact from scratch (workload generation, simulation,
//! training, measurement) and returns a plain-text report that states the
//! paper's reference numbers next to the measured ones.
//!
//! Run via the `experiments` binary:
//!
//! ```text
//! cargo run -p evax-bench --release --bin experiments -- fig16 --seed 7
//! cargo run -p evax-bench --release --bin experiments -- all
//! ```
//!
//! Absolute values differ from the paper (our substrate is a from-scratch
//! simulator, not the authors' gem5 testbed); the *shape* — who wins, by
//! roughly what factor, where crossovers fall — is the reproduction target
//! (see `EXPERIMENTS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod armsrace;
pub mod artifact;
pub mod cli;
pub mod exp_ablations;
pub mod exp_gan;
pub mod exp_hpc;
pub mod exp_perf;
pub mod exp_robust;
pub mod exp_sim;
pub mod exp_tables;
pub mod exp_zeroday;
pub mod fault_matrix;
pub mod ff_bench;
pub mod fleet_bench;
pub mod harness;
pub mod obs_pass;
pub mod obs_report;
pub mod stream_bench;
pub mod zeroday_bench;

pub use harness::{ExperimentScale, Harness};

/// All experiment ids, in the order `all` runs them.
pub const EXPERIMENT_IDS: &[&str] = &[
    "table2",
    "table1",
    "fig6",
    "fig7",
    "fig9",
    "fig10",
    "fig11",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "zeroday",
    "ablate-rob",
    "ablate-features",
    "ablate-asymmetry",
    "ablate-replication",
    "sim-throughput",
];

/// Dispatches one experiment by id.
///
/// # Errors
/// Returns an error string for unknown ids.
pub fn run_experiment(id: &str, harness: &Harness) -> Result<String, String> {
    match id {
        "table1" => Ok(exp_tables::table1(harness)),
        "table2" => Ok(exp_tables::table2()),
        "fig6" => Ok(exp_gan::fig6(harness)),
        "fig7" => Ok(exp_gan::fig7(harness)),
        "fig9" => Ok(exp_hpc::fig9(harness)),
        "fig10" => Ok(exp_hpc::fig10(harness)),
        "fig11" => Ok(exp_hpc::fig11(harness)),
        "fig14" => Ok(exp_perf::fig14(harness)),
        "fig15" => Ok(exp_perf::fig15(harness)),
        "fig16" => Ok(exp_perf::fig16(harness)),
        "fig17" => Ok(exp_robust::fig17(harness)),
        "fig18" => Ok(exp_robust::fig18(harness)),
        "fig19" => Ok(exp_zeroday::fig19(harness)),
        "fig20" => Ok(exp_zeroday::fig20(harness)),
        "zeroday" => Ok(exp_zeroday::zeroday(harness)),
        "ablate-rob" => Ok(exp_ablations::ablate_rob(harness)),
        "ablate-features" => Ok(exp_ablations::ablate_features(harness)),
        "ablate-asymmetry" => Ok(exp_ablations::ablate_asymmetry(harness)),
        "ablate-replication" => Ok(exp_ablations::ablate_replication(harness)),
        "sim-throughput" => Ok(exp_sim::sim_throughput(harness)),
        other => Err(format!(
            "unknown experiment '{other}'; known: {}",
            EXPERIMENT_IDS.join(", ")
        )),
    }
}
