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
pub mod exp_tables;
pub mod exp_zeroday;
pub mod fault_matrix;
pub mod fleet_bench;
pub mod harness;
pub mod obs_pass;
pub mod obs_report;
pub mod zeroday_bench;

pub use harness::{ExperimentScale, Harness};

/// An experiment: builds its report from the shared harness.
pub type Experiment = fn(&Harness) -> String;

/// Every experiment id with the function that produces its report, in the
/// order `all` runs them.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table2", |_| exp_tables::table2()),
    ("table1", exp_tables::table1),
    ("fig6", exp_gan::fig6),
    ("fig7", exp_gan::fig7),
    ("fig9", exp_hpc::fig9),
    ("fig10", exp_hpc::fig10),
    ("fig11", exp_hpc::fig11),
    ("fig14", exp_perf::fig14),
    ("fig15", exp_perf::fig15),
    ("fig16", exp_perf::fig16),
    ("fig17", exp_robust::fig17),
    ("fig18", exp_robust::fig18),
    ("fig19", exp_zeroday::fig19),
    ("fig20", exp_zeroday::fig20),
    ("zeroday", exp_zeroday::zeroday),
    ("ablate-rob", exp_ablations::ablate_rob),
    ("ablate-features", exp_ablations::ablate_features),
    ("ablate-asymmetry", exp_ablations::ablate_asymmetry),
    ("ablate-replication", exp_ablations::ablate_replication),
];

/// The experiment ids, in table order.
pub fn experiment_ids() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().map(|&(id, _)| id)
}

/// Dispatches one experiment by id.
///
/// # Errors
/// Returns an error string for unknown ids.
pub fn run_experiment(id: &str, harness: &Harness) -> Result<String, String> {
    match EXPERIMENTS.iter().find(|&&(known, _)| known == id) {
        Some(&(_, run)) => Ok(run(harness)),
        None => Err(format!(
            "unknown experiment '{id}'; known: {}",
            experiment_ids().collect::<Vec<_>>().join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_are_unique_and_sim_throughput_is_gone() {
        let ids: Vec<&str> = experiment_ids().collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate id in {ids:?}");
        assert_eq!(ids.len(), 19);
        let harness = Harness::new(7, ExperimentScale::Small, Default::default());
        let err = run_experiment("sim-throughput", &harness).unwrap_err();
        assert_eq!(
            err,
            format!(
                "unknown experiment 'sim-throughput'; known: {}",
                ids.join(", ")
            )
        );
    }
}
