//! Fleet service benchmark (`BENCH_fleet.json`): drives
//! [`evax_defense::fleet`] over ≥1k concurrent tenant streams and reports
//!
//! * sustained end-to-end windows/sec for the per-window baseline, the
//!   batched-f32 and the batched-quantized inference modes,
//! * p50/p99 window→verdict latency (an [`evax_obs`] pow-2 histogram over
//!   the fleet's wall-clock latency samples),
//! * the deterministic fleet block (per-stream verdict digest) the
//!   `tests/fleet.rs` determinism test compares across thread counts,
//! * an inference-only drain microbenchmark isolating the acceptance
//!   criterion: cross-stream batched scoring vs the allocating per-window
//!   `Detector::classify` call, on the same extended feature rows.
//!
//! End-to-end fleet throughput is simulation-dominated (the detector is a
//! perceptron; the cores are cycle-accurate), so the end-to-end ratio
//! mostly measures the scheduler. The drain microbenchmark is where the
//! batched kernel's win is visible in isolation.

use evax_core::collect::{collect_dataset, CollectConfig};
use evax_core::prelude::{
    Detector, DetectorKind, Featurizer, MetricsSink, Parallelism, Registry, TrainConfig,
};
use evax_defense::adaptive::AdaptiveConfig;
use evax_defense::fleet::{run_fleet, FleetConfig, FleetReport, InferenceMode};
use evax_sim::CpuConfig;
use rand::SeedableRng;

use crate::artifact::{header, threads, Object, Value};
use crate::cli::Args;
use crate::harness::timed;

/// Fleet benchmark configuration (CLI-shaped).
#[derive(Debug, Clone)]
pub struct FleetBenchConfig {
    /// Concurrent tenant streams.
    pub n_streams: usize,
    /// Master seed (detector training and stream programs).
    pub seed: u64,
    /// Shard fan-out parallelism.
    pub parallelism: Parallelism,
    /// Also run the quantized inference pass.
    pub quantized: bool,
    /// CI-scale run: fewer/shorter streams, smaller drain microbench.
    pub smoke: bool,
}

impl Default for FleetBenchConfig {
    fn default() -> Self {
        FleetBenchConfig {
            n_streams: 1024,
            seed: 42,
            parallelism: Parallelism::Auto,
            quantized: true,
            smoke: false,
        }
    }
}

impl FleetBenchConfig {
    /// The CI preset: 64 streams at smoke scale.
    pub fn smoke(seed: u64) -> FleetBenchConfig {
        FleetBenchConfig {
            n_streams: 64,
            seed,
            smoke: true,
            ..FleetBenchConfig::default()
        }
    }
}

/// One fleet pass distilled for the report.
#[derive(Debug, Clone)]
pub struct FleetPass {
    /// Inference mode name.
    pub mode: &'static str,
    /// Total windows classified.
    pub windows: u64,
    /// Wall-clock seconds for the pass.
    pub secs: f64,
    /// Sustained end-to-end windows/sec (simulation + featurization +
    /// inference + verdict application).
    pub windows_per_sec: f64,
    /// CPU seconds spent in featurization + inference drains, summed
    /// across shard workers (`FleetReport::inference_ns`) — the inference
    /// side of the end-to-end split.
    pub inference_secs: f64,
    /// CPU seconds spent stepping simulated cores, measured the same way
    /// (`FleetReport::sim_ns`) — the simulation side of the split. The two
    /// are mutually comparable; on a multi-core run their sum can exceed
    /// the pass's wall-clock `secs`.
    pub sim_secs: f64,
    /// Median window→verdict latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile window→verdict latency, nanoseconds.
    pub p99_ns: u64,
    /// The deterministic block (`FleetReport::deterministic_json`).
    pub deterministic: String,
}

/// Inference-drain microbenchmark result: the acceptance-criterion numbers.
#[derive(Debug, Clone)]
pub struct DrainBench {
    /// Rows per timed drain.
    pub rows: usize,
    /// Extended feature dimension.
    pub dim: usize,
    /// Timed repetitions.
    pub reps: usize,
    /// Kernel threads for the batched drain.
    pub kernel_threads: usize,
    /// Seconds for `reps` passes of per-window `Detector::classify`.
    pub per_window_secs: f64,
    /// Seconds for `reps` passes of the batched f32 kernel.
    pub batched_secs: f64,
    /// Seconds for `reps` passes of the batched 9-bit integer kernel.
    pub quant_secs: f64,
    /// Batched-f32 windows/sec ÷ per-window windows/sec.
    pub speedup: f64,
}

/// The full benchmark artifact.
#[derive(Debug, Clone)]
pub struct FleetBenchReport {
    /// The configuration the run used.
    pub config: FleetBenchConfig,
    /// Per-window baseline pass.
    pub per_window: FleetPass,
    /// Batched f32 pass.
    pub batched_f32: FleetPass,
    /// Batched quantized pass (if requested).
    pub batched_quant: Option<FleetPass>,
    /// Inference-drain microbenchmark.
    pub drain: DrainBench,
}

fn quantiles(latencies: &[u64]) -> (u64, u64) {
    let registry = Registry::shared();
    let sink = MetricsSink::recording(&registry);
    let h = sink.histogram("fleet_window_to_verdict_ns");
    for &ns in latencies {
        h.observe(ns);
    }
    (h.quantile(0.50), h.quantile(0.99))
}

fn fleet_pass(
    cfg: &FleetConfig,
    cpu_cfg: &CpuConfig,
    detector: &Detector,
    featurizer: &Featurizer,
    parallelism: Parallelism,
) -> FleetPass {
    let (report, secs): (FleetReport, f64) =
        timed(|| run_fleet(cfg, cpu_cfg, detector, featurizer, parallelism));
    let windows = report.windows();
    let (p50_ns, p99_ns) = quantiles(&report.latencies_ns);
    FleetPass {
        mode: cfg.inference.name(),
        windows,
        secs,
        windows_per_sec: if secs > 0.0 {
            windows as f64 / secs
        } else {
            0.0
        },
        inference_secs: report.inference_ns as f64 / 1e9,
        sim_secs: report.sim_ns as f64 / 1e9,
        p50_ns,
        p99_ns,
        deterministic: report.deterministic_json(),
    }
}

/// Times the inference drain in isolation: the same `rows × dim` extended
/// feature matrix scored (a) one window at a time through the allocating
/// `Detector::classify` baseline (featurize-per-call, as the pre-fleet
/// controller does), (b) through the threaded batched f32 kernel, and (c)
/// through the batched 9-bit integer kernel.
fn drain_bench(
    detector: &Detector,
    bases: &[Vec<f32>],
    rows: usize,
    reps: usize,
    kernel_threads: usize,
) -> DrainBench {
    let dim = detector.extended_dim();
    // Pre-featurized batch matrix — what the fleet's WindowBatch holds at
    // drain time (featurization happened at window production).
    let mut matrix = vec![0.0f32; rows * dim];
    let mut ext = Vec::with_capacity(dim);
    for i in 0..rows {
        detector.transform_into(&bases[i % bases.len()], &mut ext);
        matrix[i * dim..(i + 1) * dim].copy_from_slice(&ext);
    }
    let mut scores = vec![0.0f32; rows];
    let mut verdicts = vec![false; rows];

    // (a) the baseline: one allocating classify call per window.
    let (flags_a, per_window_secs) = timed(|| {
        let mut flags = 0u64;
        for _ in 0..reps {
            for i in 0..rows {
                if detector.classify(&bases[i % bases.len()]) {
                    flags += 1;
                }
            }
        }
        flags
    });

    // (b) the fleet's batched f32 drain.
    let (flags_b, batched_secs) = timed(|| {
        let mut flags = 0u64;
        for _ in 0..reps {
            detector.classify_rows_into(&matrix, kernel_threads, &mut scores, &mut verdicts);
            flags += verdicts.iter().filter(|&&v| v).count() as u64;
        }
        flags
    });
    assert_eq!(
        flags_a, flags_b,
        "batched f32 drain must reproduce per-window verdicts exactly"
    );

    // (c) the quantized drain (integer accumulate over u8 inputs). Input
    // quantization happens once, outside the timed loop — the fleet
    // quantizes each window's row exactly once per drain, so re-quantizing
    // the whole matrix every rep would bill the integer kernel for work the
    // service never repeats.
    let quant = detector.quantize_linear();
    let mut xq = vec![0u8; rows * dim];
    evax_nn::QuantLinear::quantize_input_into(&matrix, &mut xq);
    let mut q_scores = vec![0i64; rows];
    let (_, quant_secs) = timed(|| {
        let mut flags = 0u64;
        for _ in 0..reps {
            quant.score_rows_q_into(&xq, kernel_threads, &mut q_scores);
            flags += q_scores
                .iter()
                .filter(|&&s| s >= quant.threshold_q())
                .count() as u64;
        }
        flags
    });

    let per_window_wps = (rows * reps) as f64 / per_window_secs.max(1e-12);
    let batched_wps = (rows * reps) as f64 / batched_secs.max(1e-12);
    DrainBench {
        rows,
        dim,
        reps,
        kernel_threads,
        per_window_secs,
        batched_secs,
        quant_secs,
        speedup: batched_wps / per_window_wps.max(1e-12),
    }
}

/// Trains a small detector (collection corpus + perceptron, tuned to 99%
/// TPR) and runs the full fleet benchmark.
pub fn run_fleet_bench(cfg: &FleetBenchConfig) -> FleetBenchReport {
    let collect = CollectConfig {
        interval: 200,
        runs_per_attack: 1,
        runs_per_benign: 1,
        max_instrs: 3_000,
        benign_scale: 3_000,
        ..Default::default()
    };
    eprintln!("[fleet] training detector (collect + perceptron)...");
    let (ds, norm) = collect_dataset(&collect, cfg.seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let mut detector = Detector::train(
        DetectorKind::Evax,
        &ds,
        vec![],
        &TrainConfig::default(),
        &mut rng,
    );
    detector.tune_for_tpr(&ds, 0.99);
    let featurizer = Featurizer::new(norm, detector.engineered().to_vec());

    // Batch size matches the full-strength shard population (streams ÷
    // shards): the batch fills once per pass (threaded drain) while every
    // stream is live, then tails off through the in-place drain as streams
    // retire — both kernel paths show up in the artifact.
    let (max_instrs, batch_windows, n_shards) = if cfg.smoke {
        (1_200, 8, 8)
    } else {
        (2_000, 16, 64)
    };
    let fleet = FleetConfig {
        n_streams: cfg.n_streams,
        attack_every: 4,
        max_instrs,
        adaptive: AdaptiveConfig {
            sample_interval: 200,
            secure_window: 1_000,
            ..AdaptiveConfig::default()
        },
        batch_windows,
        n_shards,
        kernel_threads: 1,
        inference: InferenceMode::PerWindow,
        seed: cfg.seed,
        warm_start: false,
    };
    let cpu_cfg = CpuConfig::default();

    eprintln!(
        "[fleet] {} streams x {} instrs, {} shards, batch {}",
        fleet.n_streams, fleet.max_instrs, fleet.n_shards, fleet.batch_windows
    );
    let per_window = fleet_pass(&fleet, &cpu_cfg, &detector, &featurizer, cfg.parallelism);
    let batched_f32 = fleet_pass(
        &FleetConfig {
            inference: InferenceMode::BatchedF32,
            ..fleet.clone()
        },
        &cpu_cfg,
        &detector,
        &featurizer,
        cfg.parallelism,
    );
    let batched_quant = cfg.quantized.then(|| {
        fleet_pass(
            &FleetConfig {
                inference: InferenceMode::BatchedQuant,
                ..fleet.clone()
            },
            &cpu_cfg,
            &detector,
            &featurizer,
            cfg.parallelism,
        )
    });

    let bases: Vec<Vec<f32>> = ds.samples.iter().map(|s| s.features.clone()).collect();
    let (rows, reps) = if cfg.smoke { (512, 8) } else { (4_096, 50) };
    let drain = drain_bench(&detector, &bases, rows, reps, 4);

    FleetBenchReport {
        config: cfg.clone(),
        per_window,
        batched_f32,
        batched_quant,
        drain,
    }
}

fn pass_json(p: &FleetPass) -> Object {
    Object::new()
        .field("mode", p.mode)
        .field("windows", p.windows)
        .fixed("secs", p.secs, 3)
        .fixed("windows_per_sec", p.windows_per_sec, 0)
        .fixed("sim_secs", p.sim_secs, 3)
        .fixed("inference_secs", p.inference_secs, 3)
        .field("p50_ns", p.p50_ns)
        .field("p99_ns", p.p99_ns)
        .field("deterministic", Value::Raw(p.deterministic.clone()))
}

impl FleetBenchReport {
    /// Renders `BENCH_fleet.json`; `cores` in the header says whether the
    /// threaded drain numbers mean anything (they need ≥ `kernel_threads`).
    pub fn to_json(&self) -> String {
        let d = &self.drain;
        let c = &self.config;
        header("fleet", c.seed, threads(c.parallelism), c.smoke)
            .field("streams", c.n_streams)
            .field("per_window", pass_json(&self.per_window))
            .field("batched_f32", pass_json(&self.batched_f32))
            .field("batched_quant", self.batched_quant.as_ref().map(pass_json))
            .fixed(
                "end_to_end_speedup",
                self.batched_f32.windows_per_sec / self.per_window.windows_per_sec.max(1e-12),
                3,
            )
            .field(
                "inference_drain",
                Object::new()
                    .field("rows", d.rows)
                    .field("dim", d.dim)
                    .field("reps", d.reps)
                    .field("kernel_threads", d.kernel_threads)
                    .fixed("per_window_classify_secs", d.per_window_secs, 6)
                    .fixed("batched_f32_secs", d.batched_secs, 6)
                    .fixed("batched_quant_secs", d.quant_secs, 6)
                    .fixed("batched_vs_per_window_speedup", d.speedup, 3),
            )
            .field(
                "note",
                "end-to-end passes are simulation-dominated; the inference_drain block \
                 isolates the batched kernel vs the allocating per-window classify baseline \
                 on identical rows; on machines with fewer cores than kernel_threads the \
                 threaded speedup only measures substrate overhead",
            )
            .render()
    }
}

/// The `fleet` binary's command line: the configuration and the artifact
/// path. `--smoke` selects [`FleetBenchConfig::smoke`], and explicit flags
/// override it.
///
/// # Errors
/// The first bad, missing or unknown argument, with the usage line.
pub fn cli(argv: Vec<String>) -> Result<(FleetBenchConfig, String), String> {
    let mut args = Args::new(
        "fleet [--streams N] [--seed N] [--threads N] [--smoke] [--no-quant] [--out PATH]",
        argv,
    );
    let mut cfg = FleetBenchConfig::default();
    if args.smoke {
        cfg = FleetBenchConfig::smoke(cfg.seed);
    }
    let mut out = "BENCH_fleet.json".to_string();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--streams" => cfg.n_streams = args.positive()?,
            "--seed" => cfg.seed = args.seed()?,
            "--threads" => cfg.parallelism = args.threads()?,
            "--smoke" => {}
            "--no-quant" => cfg.quantized = false,
            "--out" => out = args.path()?,
            _ => return Err(args.unknown()),
        }
    }
    Ok((cfg, out))
}
