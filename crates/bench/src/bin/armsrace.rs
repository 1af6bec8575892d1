//! Arms-race benchmark driver: runs the multi-round attack ↔ vaccinate
//! loop and writes `BENCH_armsrace.json`.
//!
//! ```text
//! armsrace [--seed N] [--rounds N] [--programs N] [--members N] [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` is the CI setting: 2 rounds over a small corpus, enough to
//! prove the loop runs end-to-end and the artifact is well-formed; explicit
//! flags override the preset in any order. Exits non-zero if any variant's
//! verdict counts diverge across kernel thread counts (asserted inside
//! every evaluation), if the acceptance bars fail (round-1 baseline drop ≥
//! 20% relative, best hardened variant within 5% of clean-corpus detection
//! by the final round), or if the artifact cannot be written.

use std::process::ExitCode;

use evax_bench::armsrace::{self, run_arms_race};
use evax_bench::cli;

fn main() -> ExitCode {
    run().err().unwrap_or(ExitCode::SUCCESS)
}

fn run() -> Result<(), ExitCode> {
    let (cfg, out) = cli::parse(armsrace::cli)?;

    let report = run_arms_race(&cfg);
    cli::emit(&report.to_json(), &out)?;
    eprintln!(
        "[armsrace] round-1 baseline drop {:.1}%; best hardened gap to clean {:.1}% \
         after {} rounds (digest {})",
        report.round1_baseline_drop() * 100.0,
        report.final_best_hardened_gap() * 100.0,
        report.rounds.len(),
        report.verdict_digest
    );
    report.check().map_err(cli::fail)
}
