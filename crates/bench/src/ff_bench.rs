//! Fast-forward benchmark (`BENCH_ff.json`): quantifies what the functional
//! execution mode and snapshot/restore buy end to end.
//!
//! Four measurements, all on the full registry mix (every attack class plus
//! every benign kind):
//!
//! * **functional vs detailed instrs/sec** — `Cpu::fast_forward` against the
//!   event-driven detailed core on identical programs (the ≥10× acceptance
//!   criterion);
//! * **corpus-collection speedup** — `collect_dataset_stats` under a
//!   fast-forward [`SampleSchedule`] against the all-detailed default;
//! * **fleet warm-start speedup** — `run_fleet` forking tenant cores from
//!   the per-program snapshot pool against cold cores;
//! * **verdict drift** — per-program detector verdicts (any window flagged)
//!   under the fast-forward schedule against all-detailed, with the
//!   program-level flip rate and window-level flag rates.
//!
//! Fast-forwarded windows are approximate by design (functional retirement
//! plus touch-only warm-up between detailed sampling windows), so the drift
//! block is the honesty check that rides along with every speedup claim.

use evax_attacks::benign::Scale;
use evax_attacks::{build_attack, build_benign, KernelParams, ATTACK_CLASSES, BENIGN_KINDS};
use evax_core::collect::{collect_dataset, collect_dataset_stats, CollectConfig};
use evax_core::prelude::{Detector, DetectorKind, Featurizer, Parallelism, TrainConfig};
use evax_defense::adaptive::AdaptiveConfig;
use evax_defense::fleet::{run_fleet, FleetConfig, InferenceMode};
use evax_sim::isa::Program;
use evax_sim::{Cpu, CpuConfig, SampleSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::artifact::{header, threads, Object};
use crate::cli::Args;
use crate::harness::timed;

/// Fast-forward benchmark configuration (CLI-shaped).
#[derive(Debug, Clone)]
pub struct FfBenchConfig {
    /// Master seed (programs, collection, detector training).
    pub seed: u64,
    /// Worker threads for the collection and fleet fan-outs.
    pub parallelism: Parallelism,
    /// CI-scale run: shorter programs, smaller corpus and fleet.
    pub smoke: bool,
}

impl Default for FfBenchConfig {
    fn default() -> Self {
        FfBenchConfig {
            seed: 42,
            parallelism: Parallelism::Auto,
            smoke: false,
        }
    }
}

/// One execution-mode pass over the registry mix.
#[derive(Debug, Clone, Copy)]
pub struct ModePass {
    /// Programs in the mix.
    pub programs: usize,
    /// Instructions retired across the mix.
    pub instrs: u64,
    /// Wall-clock seconds.
    pub secs: f64,
}

impl ModePass {
    /// Retired instructions per second.
    pub fn ips(&self) -> f64 {
        self.instrs as f64 / self.secs.max(1e-9)
    }
}

/// Corpus-collection comparison: all-detailed vs fast-forward schedule.
#[derive(Debug, Clone, Copy)]
pub struct CorpusPass {
    /// Seconds for the all-detailed collection.
    pub detailed_secs: f64,
    /// Samples the all-detailed collection produced.
    pub detailed_samples: usize,
    /// Seconds for the fast-forward collection.
    pub ff_secs: f64,
    /// Samples the fast-forward collection produced (fewer by design:
    /// warm-up instructions produce no windows).
    pub ff_samples: usize,
    /// The schedule's functional warm-up run length.
    pub warmup_instrs: u64,
    /// The schedule's detailed run length per sampling window.
    pub detail_instrs: u64,
}

/// Fleet comparison: cold tenant cores vs snapshot-pool warm start.
#[derive(Debug, Clone, Copy)]
pub struct FleetPassPair {
    /// Seconds for the cold fleet.
    pub cold_secs: f64,
    /// Windows the cold fleet classified.
    pub cold_windows: u64,
    /// Seconds for the warm-start fleet (snapshot pool build included).
    pub warm_secs: f64,
    /// Windows the warm fleet classified.
    pub warm_windows: u64,
}

/// Program-level verdict drift between detailed and fast-forward sampling.
#[derive(Debug, Clone, Copy)]
pub struct DriftStats {
    /// Programs compared (the registry mix).
    pub programs: usize,
    /// Programs whose any-window-flagged verdict flipped.
    pub verdict_flips: usize,
    /// Windows produced / flagged under all-detailed sampling.
    pub detailed_windows: u64,
    /// Flags under all-detailed sampling.
    pub detailed_flags: u64,
    /// Windows produced / flagged under the fast-forward schedule.
    pub ff_windows: u64,
    /// Flags under the fast-forward schedule.
    pub ff_flags: u64,
}

impl DriftStats {
    /// Fraction of programs whose program-level verdict flipped.
    pub fn flip_rate(&self) -> f64 {
        self.verdict_flips as f64 / (self.programs as f64).max(1.0)
    }
}

/// The full benchmark artifact.
#[derive(Debug, Clone)]
pub struct FfBenchReport {
    /// The configuration the run used.
    pub config: FfBenchConfig,
    /// Functional (fast-forward) pass over the registry mix.
    pub functional: ModePass,
    /// Detailed (event-driven) pass over the same mix.
    pub detailed: ModePass,
    /// Corpus-collection comparison.
    pub corpus: CorpusPass,
    /// Fleet cold-vs-warm comparison.
    pub fleet: FleetPassPair,
    /// Verdict drift between the two sampling modes.
    pub drift: DriftStats,
}

/// Builds the registry mix: one program per attack class and benign kind.
fn registry_mix(seed: u64, iterations: u32, benign_scale: u64) -> Vec<Program> {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = KernelParams {
        iterations,
        ..Default::default()
    };
    let mut mix: Vec<Program> = ATTACK_CLASSES
        .iter()
        .map(|&c| build_attack(c, &params, &mut rng))
        .collect();
    mix.extend(
        BENIGN_KINDS
            .iter()
            .map(|&k| build_benign(k, Scale(benign_scale), &mut rng)),
    );
    mix
}

/// Runs the mix on fresh cores in one execution mode; `detailed` selects
/// the cycle-level core, otherwise the functional interpreter. The mix is
/// repeated `reps` times and the **minimum** rep time is reported — the
/// noise-robust estimator for shared machines, where the minimum is the
/// closest observation to the true cost.
fn run_mix(mix: &[Program], max_instrs: u64, detailed: bool, reps: u32) -> ModePass {
    let cfg = CpuConfig::default();
    let mut best_secs = f64::INFINITY;
    let mut instrs = 0u64;
    for _ in 0..reps.max(1) {
        let (rep_instrs, secs) = timed(|| {
            let mut rep_instrs = 0u64;
            for program in mix {
                let mut cpu = Cpu::new(cfg.clone());
                cpu.memory_mut()
                    .write_u64(evax_attacks::mds::KERNEL_SECRET_ADDR, 5);
                rep_instrs += if detailed {
                    cpu.run(program, max_instrs).committed_instructions
                } else {
                    cpu.fast_forward(program, max_instrs)
                };
            }
            rep_instrs
        });
        instrs = rep_instrs;
        best_secs = best_secs.min(secs);
    }
    ModePass {
        programs: mix.len(),
        instrs,
        secs: best_secs,
    }
}

/// Per-program detector verdict under one sampling schedule: windows
/// produced, windows flagged.
fn classify_program(
    program: &Program,
    detector: &Detector,
    featurizer: &Featurizer,
    interval: u64,
    max_instrs: u64,
    schedule: SampleSchedule,
) -> (u64, u64) {
    let mut cpu = Cpu::new(CpuConfig::default());
    cpu.memory_mut()
        .write_u64(evax_attacks::mds::KERNEL_SECRET_ADDR, 5);
    let mut base = vec![0.0f32; featurizer.base_dim()];
    let mut windows = 0u64;
    let mut flags = 0u64;
    cpu.run_sampled_with_schedule(program, max_instrs, interval, schedule, |s| {
        windows += 1;
        featurizer.normalizer().normalize_into(&s.values, &mut base);
        if detector.classify(&base) {
            flags += 1;
        }
        None
    });
    (windows, flags)
}

/// Trains a small detector (collection corpus + perceptron, tuned to 99%
/// TPR) and runs the full fast-forward benchmark.
pub fn run_ff_bench(cfg: &FfBenchConfig) -> FfBenchReport {
    // Mix iterations are sized so programs fill the instruction budget
    // rather than halting early: instrs/sec then measures execution, not
    // per-program setup.
    let (iterations, benign_scale, mix_instrs, collect_instrs, n_streams) = if cfg.smoke {
        (128u32, 20_000u64, 20_000u64, 6_000u64, 96)
    } else {
        (1024, 120_000, 100_000, 12_000, 512)
    };
    let interval = 200u64;
    // 3 warm-up intervals per detailed interval: 4× fewer detailed
    // instructions per window, the SMARTS-style sampling trade.
    let schedule = SampleSchedule {
        warmup_instrs: 3 * interval,
        detail_instrs: interval,
    };

    eprintln!("[ff] functional vs detailed on the registry mix...");
    let mix = registry_mix(cfg.seed, iterations, benign_scale);
    let (ff_reps, det_reps) = if cfg.smoke { (3, 2) } else { (10, 3) };
    // Warm-up passes stabilize caches/allocator before the timed passes.
    run_mix(&mix, mix_instrs, false, 1);
    let functional = run_mix(&mix, mix_instrs, false, ff_reps);
    let detailed = run_mix(&mix, mix_instrs, true, det_reps);

    eprintln!("[ff] corpus collection: all-detailed vs fast-forward schedule...");
    let collect = CollectConfig {
        interval,
        runs_per_attack: 1,
        runs_per_benign: 1,
        max_instrs: collect_instrs,
        benign_scale: collect_instrs,
        parallelism: cfg.parallelism,
        ..Default::default()
    };
    let (detailed_ds, detailed_secs) = timed(|| collect_dataset_stats(&collect, cfg.seed));
    let ff_collect = CollectConfig {
        schedule,
        ..collect.clone()
    };
    let (ff_ds, ff_secs) = timed(|| collect_dataset_stats(&ff_collect, cfg.seed));
    let corpus = CorpusPass {
        detailed_secs,
        detailed_samples: detailed_ds.0.len(),
        ff_secs,
        ff_samples: ff_ds.0.len(),
        warmup_instrs: schedule.warmup_instrs,
        detail_instrs: schedule.detail_instrs,
    };

    eprintln!("[ff] training drift detector...");
    let (ds, norm) = collect_dataset(
        &CollectConfig {
            interval,
            runs_per_attack: 1,
            runs_per_benign: 1,
            max_instrs: 3_000,
            benign_scale: 3_000,
            parallelism: cfg.parallelism,
            ..Default::default()
        },
        cfg.seed,
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut detector = Detector::train(
        DetectorKind::Evax,
        &ds,
        vec![],
        &TrainConfig::default(),
        &mut rng,
    );
    detector.tune_for_tpr(&ds, 0.99);
    let featurizer = Featurizer::new(norm, detector.engineered().to_vec());

    eprintln!("[ff] verdict drift across the registry mix...");
    let drift_instrs = collect_instrs;
    let mut drift = DriftStats {
        programs: mix.len(),
        verdict_flips: 0,
        detailed_windows: 0,
        detailed_flags: 0,
        ff_windows: 0,
        ff_flags: 0,
    };
    for program in &mix {
        let (dw, df) = classify_program(
            program,
            &detector,
            &featurizer,
            interval,
            drift_instrs,
            SampleSchedule::default(),
        );
        let (fw, ff) = classify_program(
            program,
            &detector,
            &featurizer,
            interval,
            drift_instrs,
            schedule,
        );
        drift.detailed_windows += dw;
        drift.detailed_flags += df;
        drift.ff_windows += fw;
        drift.ff_flags += ff;
        if (df > 0) != (ff > 0) {
            drift.verdict_flips += 1;
        }
    }

    eprintln!("[ff] fleet: cold vs snapshot warm start ({n_streams} streams)...");
    let fleet_cfg = FleetConfig {
        n_streams,
        attack_every: 4,
        max_instrs: 2_000,
        adaptive: AdaptiveConfig {
            sample_interval: interval,
            secure_window: 1_000,
            ..AdaptiveConfig::default()
        },
        batch_windows: 16,
        n_shards: 32,
        kernel_threads: 1,
        inference: InferenceMode::BatchedF32,
        seed: cfg.seed,
        warm_start: false,
    };
    let cpu_cfg = CpuConfig::default();
    let (cold, cold_secs) = timed(|| {
        run_fleet(
            &fleet_cfg,
            &cpu_cfg,
            &detector,
            &featurizer,
            cfg.parallelism,
        )
    });
    let warm_cfg = FleetConfig {
        warm_start: true,
        ..fleet_cfg.clone()
    };
    let (warm, warm_secs) =
        timed(|| run_fleet(&warm_cfg, &cpu_cfg, &detector, &featurizer, cfg.parallelism));
    let fleet = FleetPassPair {
        cold_secs,
        cold_windows: cold.windows(),
        warm_secs,
        warm_windows: warm.windows(),
    };

    FfBenchReport {
        config: cfg.clone(),
        functional,
        detailed,
        corpus,
        fleet,
        drift,
    }
}

impl FfBenchReport {
    /// Renders `BENCH_ff.json`.
    pub fn to_json(&self) -> String {
        let mode = |m: &ModePass| {
            Object::new()
                .field("programs", m.programs)
                .field("instrs", m.instrs)
                .fixed("secs", m.secs, 3)
                .fixed("instrs_per_sec", m.ips(), 0)
        };
        let (c, f, d) = (&self.corpus, &self.fleet, &self.drift);
        let cfg = &self.config;
        header("ff", cfg.seed, threads(cfg.parallelism), cfg.smoke)
            .field("functional", mode(&self.functional))
            .field("detailed", mode(&self.detailed))
            .fixed(
                "functional_vs_detailed_speedup",
                self.functional.ips() / self.detailed.ips().max(1e-9),
                2,
            )
            .field(
                "corpus",
                Object::new()
                    .field("warmup_instrs", c.warmup_instrs)
                    .field("detail_instrs", c.detail_instrs)
                    .fixed("detailed_secs", c.detailed_secs, 3)
                    .field("detailed_samples", c.detailed_samples)
                    .fixed("ff_secs", c.ff_secs, 3)
                    .field("ff_samples", c.ff_samples)
                    .fixed("speedup", c.detailed_secs / c.ff_secs.max(1e-9), 2),
            )
            .field(
                "fleet",
                Object::new()
                    .fixed("cold_secs", f.cold_secs, 3)
                    .field("cold_windows", f.cold_windows)
                    .fixed("warm_secs", f.warm_secs, 3)
                    .field("warm_windows", f.warm_windows)
                    .fixed("speedup", f.cold_secs / f.warm_secs.max(1e-9), 2),
            )
            .field(
                "drift",
                Object::new()
                    .field("programs", d.programs)
                    .field("verdict_flips", d.verdict_flips)
                    .fixed("flip_rate", d.flip_rate(), 3)
                    .field("detailed_windows", d.detailed_windows)
                    .field("detailed_flags", d.detailed_flags)
                    .field("ff_windows", d.ff_windows)
                    .field("ff_flags", d.ff_flags),
            )
            .field(
                "note",
                "functional mode retires instructions architecturally with touch-only \
                 cache/TLB/predictor warm-up, so fast-forwarded windows are approximate; the \
                 drift block quantifies the cost. ff corpus samples are fewer by design \
                 (warm-up produces no windows). fleet warm_secs includes building the \
                 per-program snapshot pool.",
            )
            .render()
    }
}

/// The `ff` binary's command line: the configuration and the artifact path.
///
/// # Errors
/// The first bad, missing or unknown argument, with the usage line.
pub fn cli(argv: Vec<String>) -> Result<(FfBenchConfig, String), String> {
    let mut args = Args::new("ff [--seed N] [--threads N] [--smoke] [--out PATH]", argv);
    let mut cfg = FfBenchConfig {
        smoke: args.smoke,
        ..FfBenchConfig::default()
    };
    let mut out = "BENCH_ff.json".to_string();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => cfg.seed = args.seed()?,
            "--threads" => cfg.parallelism = args.threads()?,
            "--smoke" => {}
            "--out" => out = args.path()?,
            _ => return Err(args.unknown()),
        }
    }
    Ok((cfg, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_mode_is_much_faster_than_detailed_on_a_slice() {
        let mix = registry_mix(7, 24, 3_000);
        let slice = &mix[..4];
        run_mix(slice, 20_000, false, 1);
        let functional = run_mix(slice, 20_000, false, 2);
        let detailed = run_mix(slice, 20_000, true, 1);
        assert!(functional.instrs > 0 && detailed.instrs > 0);
        assert!(
            functional.ips() > 3.0 * detailed.ips(),
            "functional {:.0} ips vs detailed {:.0} ips",
            functional.ips(),
            detailed.ips()
        );
    }

    #[test]
    fn report_renders_valid_shape() {
        let report = FfBenchReport {
            config: FfBenchConfig::default(),
            functional: ModePass {
                programs: 31,
                instrs: 1_000_000,
                secs: 0.1,
            },
            detailed: ModePass {
                programs: 31,
                instrs: 1_000_000,
                secs: 2.0,
            },
            corpus: CorpusPass {
                detailed_secs: 2.0,
                detailed_samples: 1000,
                ff_secs: 0.5,
                ff_samples: 260,
                warmup_instrs: 600,
                detail_instrs: 200,
            },
            fleet: FleetPassPair {
                cold_secs: 3.0,
                cold_windows: 5000,
                warm_secs: 2.5,
                warm_windows: 5000,
            },
            drift: DriftStats {
                programs: 31,
                verdict_flips: 2,
                detailed_windows: 1800,
                detailed_flags: 700,
                ff_windows: 460,
                ff_flags: 180,
            },
        };
        let json = report.to_json();
        for key in [
            "functional_vs_detailed_speedup",
            "\"corpus\"",
            "\"fleet\"",
            "\"drift\"",
            "flip_rate",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!((report.drift.flip_rate() - 2.0 / 31.0).abs() < 1e-12);
    }
}
