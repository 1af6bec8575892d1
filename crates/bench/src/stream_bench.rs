//! Corpus + collection drivers for the `collect_rss` binary, which compares
//! streaming against materialising collection in time and peak memory
//! (`BENCH_stream.json`).
//!
//! Two implementations of the same fit-then-normalize collection:
//!
//! - [`collect_streaming`] — the production path: per-run [`StreamStats`]
//!   fit pass + re-simulating emit pass, O(dim) working memory per worker.
//! - [`collect_materialized`] — the pre-refactor algorithm: buffer every
//!   raw `f64` window, fit the normalizer over the matrix, normalize in a
//!   second in-memory pass. Kept here purely as the comparison baseline.
//!
//! Both produce bit-identical datasets (`tests/golden_featurization.rs`
//! proves it); what differs is peak memory and where the time goes.

use evax_attacks::benign::Scale;
use evax_attacks::{build_attack, build_benign, KernelParams};
use evax_core::featurize::DatasetSink;
use evax_core::par;
use evax_core::prelude::{
    Dataset, Normalizer, Parallelism, ProgramSource, Sample, StreamStats, WindowSource,
    BENIGN_CLASS,
};
use evax_sim::{CpuConfig, Program};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sampling interval (the default collection interval).
pub const INTERVAL: u64 = 100;
/// Instruction budget per run (the default collection budget).
pub const MAX_INSTRS: u64 = 12_000;

/// Builds a labeled corpus of `repeat × (21 attacks + 10 benigns)` runs
/// with per-run jitter. `repeat = 12` is ≥ 10× the default collection
/// corpus's per-class run counts.
pub fn corpus(repeat: usize) -> Vec<(usize, Program)> {
    let mut out = Vec::new();
    for run in 0..repeat {
        for (i, &class) in evax_attacks::ATTACK_CLASSES.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0xC0_11EC + (run * 31 + i) as u64);
            let params = KernelParams {
                iterations: 150 + (run as u32 % 4) * 75,
                ..Default::default()
            };
            out.push((class.label(), build_attack(class, &params, &mut rng)));
        }
        for (i, &kind) in evax_attacks::BENIGN_KINDS.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0xBE_916E + (run * 37 + i) as u64);
            out.push((
                BENIGN_CLASS,
                build_benign(kind, Scale(MAX_INSTRS), &mut rng),
            ));
        }
    }
    out
}

/// The production streaming path: fit pass (per-run stats merged in
/// canonical order) + re-simulating emit pass. Never materializes a raw
/// window matrix.
pub fn collect_streaming(corpus: &[(usize, Program)], parallelism: Parallelism) -> Dataset {
    let cpu_cfg = CpuConfig::default();
    let dim = evax_sim::HPC_BASE_DIM;
    let per_run = par::map(parallelism, corpus, |(_, program)| {
        let mut stats = StreamStats::new(dim);
        ProgramSource::new(program, &cpu_cfg, INTERVAL, MAX_INSTRS).stream(&mut stats);
        stats
    });
    let mut stats = StreamStats::new(dim);
    for s in &per_run {
        stats.merge(s);
    }
    let norm = stats.normalizer();
    let per_ds = par::map(parallelism, corpus, |(class, program)| {
        let mut sink = DatasetSink::new(&norm, *class);
        ProgramSource::new(program, &cpu_cfg, INTERVAL, MAX_INSTRS).stream(&mut sink);
        sink.into_dataset()
    });
    let mut ds = Dataset::new();
    for d in per_ds {
        ds.extend(d);
    }
    ds
}

/// The pre-refactor materializing baseline: one simulation pass buffering
/// every raw `f64` window, then fit + normalize in memory. Peak memory is
/// the full raw window matrix.
pub fn collect_materialized(corpus: &[(usize, Program)], parallelism: Parallelism) -> Dataset {
    let cpu_cfg = CpuConfig::default();
    let per_run: Vec<(usize, Vec<Vec<f64>>)> = par::map(parallelism, corpus, |(class, program)| {
        let mut sink = evax_core::featurize::CollectingSink::new();
        ProgramSource::new(program, &cpu_cfg, INTERVAL, MAX_INSTRS).stream(&mut sink);
        (*class, sink.into_windows())
    });
    let mut norm = Normalizer::new(evax_sim::HPC_BASE_DIM);
    for (_, windows) in &per_run {
        for w in windows {
            norm.observe(w);
        }
    }
    let mut ds = Dataset::new();
    for (class, windows) in &per_run {
        for w in windows {
            ds.push(Sample::new(norm.normalize(w), *class));
        }
    }
    ds
}

/// Peak resident set size (`VmHWM`) of this process, in kilobytes.
/// Returns 0 when `/proc` is unavailable (non-Linux).
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}
