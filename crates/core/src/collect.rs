//! Sample collection: run attack/benign programs on the simulator, sample
//! all counters every N committed instructions, normalize by running max.
//!
//! Paper §VII: "We have extended our framework to collect statistics once
//! every 100,000, 10,000, 1000 and 100 instructions ... Contrary to typical
//! architectural studies, we generate many more, smaller simpoints of benign
//! codes, since we need to train to detect short patterns quickly."
//!
//! Collection rides the unified streaming featurization pipeline
//! ([`crate::featurize`]): a **fit** pass streams every run's windows into
//! per-stream [`StreamStats`] (one window vector + running stats per stream
//! in memory), and an **emit** pass re-simulates each run — the simulator is
//! bit-deterministic, so re-running is exact — converting every window
//! straight into its normalized `f32` sample. No raw window matrix is ever
//! materialized, so peak memory is bounded by the *output* dataset
//! regardless of corpus size (the streaming trade: one extra simulation
//! pass buys O(dim) working memory per stream).

use evax_attacks::benign::Scale;
use evax_attacks::{build_attack, build_benign, AttackClass, BenignKind, KernelParams};
use evax_obs::MetricsSink;
use evax_sim::{CpuConfig, Program, SampleSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::{Dataset, Normalizer, Sample, BENIGN_CLASS};
use crate::error::{EvaxError, Result};
use crate::featurize::{CollectingSink, DatasetSink, ProgramSource, StreamStats, WindowSource};
use crate::par::{self, Parallelism};

/// Collection configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectConfig {
    /// Sampling interval in committed instructions (paper: 100–100k).
    pub interval: u64,
    /// Program runs per attack class.
    pub runs_per_attack: usize,
    /// Program runs per benign kind (paper: "many more, smaller simpoints").
    pub runs_per_benign: usize,
    /// Instruction budget per run.
    pub max_instrs: u64,
    /// Benign workload scale (dynamic instructions per program).
    pub benign_scale: u64,
    /// Worker threads for the simulation fan-out. Collection is
    /// bit-deterministic at any setting (see [`crate::par`]).
    pub parallelism: Parallelism,
    /// Fast-forward interval schedule. The default (all-detailed) keeps
    /// collection bitwise-identical to the historical behavior; a nonzero
    /// `warmup_instrs` fast-forwards between sampling windows for large
    /// corpus-throughput gains at the cost of approximate windows.
    pub schedule: SampleSchedule,
    /// Simulated core configuration for every run. The default is
    /// bit-compatible with the historical hard-coded
    /// `CpuConfig::default()`; enabling the energy sensor here widens the
    /// collected windows (the dataset dimension follows
    /// `FeatureSchema::for_config(&cpu)`).
    pub cpu: CpuConfig,
}

impl Default for CollectConfig {
    fn default() -> Self {
        CollectConfig {
            interval: 100,
            runs_per_attack: 4,
            runs_per_benign: 8,
            max_instrs: 12_000,
            benign_scale: 12_000,
            parallelism: Parallelism::Auto,
            schedule: SampleSchedule::default(),
            cpu: CpuConfig::default(),
        }
    }
}

impl CollectConfig {
    /// Checks the configuration before collecting. Every collector entry
    /// point in this module (and [`crate::fuzz::collect_corpus`]) runs it
    /// up front and panics `invalid collect config: …` on failure;
    /// [`crate::pipeline::EvaxConfig::validate`] delegates to it.
    ///
    /// # Errors
    /// [`EvaxError::Config`] when a field is degenerate: a zero sampling
    /// interval or instruction budget (no windows would ever be produced),
    /// an interval beyond the instruction budget (every run would yield an
    /// empty stream), a zero benign workload scale, or zero runs of both
    /// attack and benign programs (an empty registry/dataset).
    pub fn validate(&self) -> Result<()> {
        if self.interval == 0 {
            return Err(EvaxError::config(
                "collect.interval",
                "sampling interval must be positive",
            ));
        }
        if self.max_instrs == 0 {
            return Err(EvaxError::config(
                "collect.max_instrs",
                "instruction budget must be positive",
            ));
        }
        if self.interval > self.max_instrs {
            return Err(EvaxError::config(
                "collect.interval",
                format!(
                    "interval {} exceeds the {}-instruction budget: every run would \
                     produce zero windows",
                    self.interval, self.max_instrs
                ),
            ));
        }
        if self.benign_scale == 0 {
            return Err(EvaxError::config(
                "collect.benign_scale",
                "benign workload scale must be positive",
            ));
        }
        if self.runs_per_attack == 0 && self.runs_per_benign == 0 {
            return Err(EvaxError::config(
                "collect.runs_per_attack/runs_per_benign",
                "at least one program run is required (the registry would be empty)",
            ));
        }
        Ok(())
    }

    /// Panics `invalid collect config: …` unless [`Self::validate`] passes.
    pub(crate) fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid collect config: {e}");
        }
    }
}

/// Collects the raw (unnormalized) HPC windows for one program.
///
/// Diagnostic/figure helper over the shared streaming source — the
/// production collection path never materializes windows like this.
pub fn raw_windows(program: &Program, cfg: &CollectConfig, cpu_cfg: &CpuConfig) -> Vec<Vec<f64>> {
    cfg.assert_valid();
    let mut sink = CollectingSink::new();
    ProgramSource::new(program, cpu_cfg, cfg.interval, cfg.max_instrs)
        .with_schedule(cfg.schedule)
        .stream(&mut sink);
    sink.into_windows()
}

/// One unit of collection work: a single program run with its own
/// pre-assigned random stream.
enum RunSpec {
    /// One attack-kernel run (`run` indexes the per-class jitter schedule).
    Attack { class: AttackClass, run: usize },
    /// One benign-workload run.
    Benign { kind: BenignKind },
}

/// Builds the program and label for one run. Construction is a pure
/// function of `(spec, child_seed)`, so the fit and emit passes rebuild
/// byte-identical programs.
fn build_run(spec: &RunSpec, child_seed: u64, cfg: &CollectConfig) -> (Program, usize) {
    let mut rng = StdRng::seed_from_u64(child_seed);
    match spec {
        RunSpec::Attack { class, run } => {
            // Enough attack rounds to fill the instruction budget, so
            // every class yields a comparable number of windows
            // (short kernels like LVI would otherwise contribute
            // almost no samples).
            let params = KernelParams {
                seed: rng.gen(),
                iterations: 150 + (*run as u32 % 4) * 75,
                ..Default::default()
            };
            (build_attack(*class, &params, &mut rng), class.label())
        }
        RunSpec::Benign { kind } => (
            build_benign(*kind, Scale(cfg.benign_scale), &mut rng),
            BENIGN_CLASS,
        ),
    }
}

/// The canonical work list: every attack class plus every benign kind, with
/// per-run child seeds drawn from the master RNG in canonical run order.
fn run_specs(cfg: &CollectConfig, seed: u64) -> Vec<(RunSpec, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut runs: Vec<(RunSpec, u64)> = Vec::new();
    for class in evax_attacks::ATTACK_CLASSES {
        for run in 0..cfg.runs_per_attack {
            runs.push((RunSpec::Attack { class, run }, rng.gen()));
        }
    }
    for kind in evax_attacks::BENIGN_KINDS {
        for _ in 0..cfg.runs_per_benign {
            runs.push((RunSpec::Benign { kind }, rng.gen()));
        }
    }
    runs
}

/// A full labeled collection run: every attack class plus every benign kind,
/// with per-run parameter jitter so samples are not identical.
///
/// Runs fan out across `cfg.parallelism` worker threads; every run's random
/// stream is a child seed drawn from the master RNG in canonical run order
/// before the fan-out, per-stream statistics and samples are merged back in
/// that same order, so the result is **bit-identical at any thread count**
/// (see [`crate::par`]).
///
/// Returns the dataset (normalized) and the full streaming statistics
/// (maxima for the [`Normalizer`], Welford mean/variance) fitted over every
/// raw window.
pub fn collect_dataset_stats(cfg: &CollectConfig, seed: u64) -> (Dataset, StreamStats) {
    collect_dataset_stats_with(cfg, seed, &MetricsSink::default())
}

/// [`collect_dataset_stats`] with observability: each worker records into a
/// private [`MetricsSink::fork`] (the thread-local-recorder discipline),
/// and forks are absorbed back in canonical run order alongside the
/// `StreamStats` merge — so `metrics`' deterministic export is
/// byte-identical at any thread count. With the default no-op sink this is
/// exactly [`collect_dataset_stats`].
pub fn collect_dataset_stats_with(
    cfg: &CollectConfig,
    seed: u64,
    metrics: &MetricsSink,
) -> (Dataset, StreamStats) {
    cfg.assert_valid();
    let cpu_cfg = cfg.cpu.clone();
    let runs = run_specs(cfg, seed);
    let dim = evax_sim::dim_for(&cpu_cfg);

    // Fit pass: stream every run's windows into per-stream statistics.
    // Memory per worker: one in-flight window vector plus O(dim) stats.
    let per_run_stats: Vec<(StreamStats, MetricsSink)> =
        par::map(cfg.parallelism, &runs, |(spec, child_seed)| {
            let (program, _) = build_run(spec, *child_seed, cfg);
            let mut stats = StreamStats::new(dim);
            let local = metrics.fork();
            ProgramSource::new(&program, &cpu_cfg, cfg.interval, cfg.max_instrs)
                .with_schedule(cfg.schedule)
                .with_metrics(local.clone())
                .stream(&mut stats);
            (stats, local)
        });
    let mut stats = StreamStats::new(dim);
    for (s, local) in &per_run_stats {
        stats.merge(s);
        metrics.absorb(local);
    }
    let norm = stats.normalizer();

    // Emit pass: re-simulate (bit-deterministic) and normalize each window
    // straight into its f32 sample — raw windows are never retained.
    let per_run: Vec<(Dataset, MetricsSink)> =
        par::map(cfg.parallelism, &runs, |(spec, child_seed)| {
            let (program, label) = build_run(spec, *child_seed, cfg);
            let mut sink = DatasetSink::new(&norm, label);
            let local = metrics.fork();
            ProgramSource::new(&program, &cpu_cfg, cfg.interval, cfg.max_instrs)
                .with_schedule(cfg.schedule)
                .with_metrics(local.clone())
                .stream(&mut sink);
            (sink.into_dataset(), local)
        });
    let mut ds = Dataset::new();
    for (run_ds, local) in per_run {
        ds.extend(run_ds);
        metrics.absorb(&local);
    }
    metrics.add("collect.runs", runs.len() as u64);
    metrics.add("collect.samples", ds.len() as u64);
    (ds, stats)
}

/// [`collect_dataset_stats`], returning just the fitted normalizer (the
/// historical interface; byte-identical output).
pub fn collect_dataset(cfg: &CollectConfig, seed: u64) -> (Dataset, Normalizer) {
    let (ds, stats) = collect_dataset_stats(cfg, seed);
    let norm = stats.normalizer();
    (ds, norm)
}

/// Collects samples for a single prebuilt program under an existing
/// normalizer (used for evasive corpora and detector deployment). Streams
/// each window straight into its normalized sample.
pub fn collect_program(
    program: &Program,
    class: usize,
    cfg: &CollectConfig,
    norm: &Normalizer,
) -> Vec<Sample> {
    cfg.assert_valid();
    let cpu_cfg = cfg.cpu.clone();
    let mut sink = DatasetSink::new(norm, class);
    ProgramSource::new(program, &cpu_cfg, cfg.interval, cfg.max_instrs)
        .with_schedule(cfg.schedule)
        .stream(&mut sink);
    sink.into_dataset().samples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CollectConfig {
        CollectConfig {
            interval: 200,
            runs_per_attack: 1,
            runs_per_benign: 1,
            max_instrs: 3_000,
            benign_scale: 3_000,
            parallelism: Parallelism::serial(),
            ..Default::default()
        }
    }

    #[test]
    #[should_panic(expected = "invalid collect config: invalid config (collect.interval)")]
    fn collect_rejects_a_zero_interval() {
        // Unchecked, a zero interval yields more samples than committed
        // instructions.
        collect_dataset(
            &CollectConfig {
                interval: 0,
                ..tiny()
            },
            7,
        );
    }

    #[test]
    #[should_panic(expected = "invalid collect config: invalid config (collect.interval)")]
    fn collect_rejects_an_interval_beyond_the_budget() {
        // Unchecked, no run would reach one window: an empty dataset.
        collect_dataset(
            &CollectConfig {
                interval: 4_000,
                ..tiny()
            },
            7,
        );
    }

    #[test]
    #[should_panic(expected = "invalid collect config: invalid config (collect.max_instrs)")]
    fn collect_program_rejects_a_zero_budget() {
        let program = build_benign(
            evax_attacks::BENIGN_KINDS[0],
            Scale(1_000),
            &mut StdRng::seed_from_u64(1),
        );
        let norm = Normalizer::new(evax_sim::HPC_BASE_DIM);
        collect_program(
            &program,
            BENIGN_CLASS,
            &CollectConfig {
                max_instrs: 0,
                ..tiny()
            },
            &norm,
        );
    }

    #[test]
    fn collection_produces_labeled_normalized_samples() {
        let (ds, norm) = collect_dataset(&tiny(), 7);
        assert!(ds.len() > 100, "got {} samples", ds.len());
        assert_eq!(ds.feature_dim(), evax_sim::HPC_BASE_DIM);
        assert_eq!(norm.dim(), evax_sim::HPC_BASE_DIM);
        assert!(ds.n_malicious() > 0 && ds.n_benign() > 0);
        for s in &ds.samples {
            assert!(s.features.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn stats_cover_every_window() {
        let (ds, stats) = collect_dataset_stats(&tiny(), 7);
        assert_eq!(stats.count(), ds.len() as u64);
        assert_eq!(stats.dim(), evax_sim::HPC_BASE_DIM);
        // Welford means of |x| are bounded by the fitted maxima.
        for i in 0..stats.dim() {
            assert!(stats.means()[i].abs() <= stats.normalizer().maxima()[i] + 1e-12);
        }
    }

    #[test]
    fn attack_and_benign_windows_differ() {
        let (ds, _) = collect_dataset(&tiny(), 8);
        // Mean squashed-work feature should be higher for attacks.
        let idx = evax_sim::hpc_index("iew.ExecSquashedInsts").unwrap();
        let mean = |malicious: bool| -> f32 {
            let xs: Vec<f32> = ds
                .samples
                .iter()
                .filter(|s| s.malicious == malicious)
                .map(|s| s.features[idx])
                .collect();
            xs.iter().sum::<f32>() / xs.len().max(1) as f32
        };
        assert!(
            mean(true) > mean(false),
            "attacks should squash more: {} vs {}",
            mean(true),
            mean(false)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = collect_dataset(&tiny(), 9);
        let (b, _) = collect_dataset(&tiny(), 9);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.samples[0], b.samples[0]);
    }

    /// The tentpole contract: the whole dataset (every sample, in order) and
    /// the fitted normalizer are byte-identical whether collection ran on
    /// one thread or many — including more threads than this machine has
    /// cores.
    #[test]
    fn parallel_collection_matches_serial_bitwise() {
        let serial = tiny();
        let (a, stats_a) = collect_dataset_stats(&serial, 11);
        for threads in [2, 4, 7] {
            let parallel = CollectConfig {
                parallelism: Parallelism::Fixed(threads),
                ..serial.clone()
            };
            let (b, stats_b) = collect_dataset_stats(&parallel, 11);
            assert_eq!(a.samples, b.samples, "threads={threads}");
            // The full streaming statistics — maxima *and* Welford
            // mean/variance — are bit-identical, because per-stream stats
            // merge in canonical stream order regardless of thread count.
            assert_eq!(stats_a, stats_b, "threads={threads}");
        }
    }
}
