//! Zero-day benchmark driver: trains the unsupervised anomaly scorer on
//! benign windows only and evaluates it on held-out attack categories,
//! writing `BENCH_zeroday.json`.
//!
//! ```text
//! zeroday [--seed N] [--instrs N] [--runs N] [--fpr F] [--topk K] [--bar F]
//!         [--carrier-bar F] [--threads N] [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` is the CI setting: one run per program over a short
//! instruction budget, enough to prove the pipeline runs end-to-end and
//! the artifact is well-formed; explicit flags override the preset in any
//! order. Exits non-zero if fewer than 3 of the 4 held-out categories are
//! detected at the target false-positive rate, or — on full-size runs — if
//! adding the `energy.*` features does not improve mean held-out detection
//! over HPC-only features, if fewer than 3 of the 4 busy-carrier composed
//! attacks clear the carrier bar, or if the benign-carrier false-positive
//! rate exceeds the target (smoke corpora are too small to resolve those
//! margins).

use std::process::ExitCode;

use evax_bench::cli;
use evax_bench::zeroday_bench::{self, run_zeroday};

fn main() -> ExitCode {
    run().err().unwrap_or(ExitCode::SUCCESS)
}

fn run() -> Result<(), ExitCode> {
    let (cfg, out) = cli::parse(zeroday_bench::cli)?;

    let report = run_zeroday(&cfg);
    cli::emit(&report.to_json(), &out)?;
    eprintln!(
        "[zeroday] {}/4 categories detected with energy (hpc-only {}/4); \
         mean TPR {:.3} vs {:.3}; held-out FPR {:.4} vs {:.4}",
        report.detected_energy(),
        report.detected_hpc(),
        report.mean_tpr_energy(),
        report.mean_tpr_hpc(),
        report.fpr_energy,
        report.fpr_hpc,
    );
    eprintln!(
        "[zeroday] carriers: {}/4 composed attacks detected with device columns \
         (device-blind {}/4); benign-carrier FPR {:.4} (delta vs clean {:+.4})",
        report.carrier.detected_full(cfg.carrier_bar),
        report.carrier.detected_hpc(cfg.carrier_bar),
        report.carrier.fpr_full,
        report.carrier.fpr_full - report.fpr_energy,
    );
    report.check().map_err(cli::fail)
}
