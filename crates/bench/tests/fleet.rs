//! The fleet service contract: the deterministic block of
//! `BENCH_fleet.json` is byte-identical at any thread count, the quantized
//! kernel agrees with the f32 oracle on real simulated windows within its
//! provable bound, and (on machines with the cores to show it) the batched
//! drain clears the 5× throughput bar over per-window classification.

use evax_bench::fleet_bench::{self, run_fleet_bench, FleetBenchConfig};
use evax_core::collect::{collect_dataset, CollectConfig};
use evax_core::prelude::{Detector, DetectorKind, Featurizer, Parallelism, TrainConfig};
use evax_defense::adaptive::AdaptiveConfig;
use evax_defense::fleet::{run_fleet, FleetConfig, InferenceMode};
use evax_sim::CpuConfig;
use rand::SeedableRng;

fn small_collect() -> CollectConfig {
    CollectConfig {
        interval: 200,
        runs_per_attack: 1,
        runs_per_benign: 1,
        max_instrs: 3_000,
        benign_scale: 3_000,
        ..Default::default()
    }
}

fn trained(seed: u64) -> (Detector, Featurizer, evax_core::prelude::Dataset) {
    let (ds, norm) = collect_dataset(&small_collect(), seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut det = Detector::train(
        DetectorKind::Evax,
        &ds,
        vec![],
        &TrainConfig::default(),
        &mut rng,
    );
    det.tune_for_tpr(&ds, 0.99);
    let feat = Featurizer::new(norm, det.engineered().to_vec());
    (det, feat, ds)
}

fn fleet_cfg(n_streams: usize, inference: InferenceMode) -> FleetConfig {
    FleetConfig {
        n_streams,
        attack_every: 4,
        max_instrs: 1_500,
        adaptive: AdaptiveConfig {
            sample_interval: 200,
            secure_window: 1_000,
            ..AdaptiveConfig::default()
        },
        // 6 streams per shard vs a 4-window batch: both the full (threaded)
        // flush and the end-of-pass tail flush run every pass.
        batch_windows: 4,
        n_shards: 8,
        kernel_threads: 1,
        inference,
        seed: 7,
        warm_start: false,
    }
}

#[test]
fn fleet_deterministic_block_is_byte_identical_across_thread_counts() {
    let (det, feat, _) = trained(7);
    let cpu_cfg = CpuConfig::default();
    for mode in [InferenceMode::BatchedF32, InferenceMode::PerWindow] {
        let cfg = fleet_cfg(48, mode);
        let json_at = |n: usize| {
            run_fleet(&cfg, &cpu_cfg, &det, &feat, Parallelism::Fixed(n)).deterministic_json()
        };
        let one = json_at(1);
        assert_eq!(one, json_at(4), "1 vs 4 threads diverged ({mode:?})");
        assert_eq!(one, json_at(16), "1 vs 16 threads diverged ({mode:?})");
    }
}

#[test]
fn quantized_verdicts_agree_with_f32_oracle_on_real_windows() {
    // Real simulated windows — the collection corpus the detector trained
    // on — pushed through both kernels row by row.
    let (det, _, ds) = trained(11);
    let quant = det.quantize_linear();
    let mut ext = Vec::new();
    let mut xq = Vec::new();
    let mut flips = 0u64;
    let mut total = 0u64;
    for s in &ds.samples {
        det.transform_into(&s.features, &mut ext);
        xq.clear();
        xq.resize(ext.len(), 0);
        evax_nn::QuantLinear::quantize_input_into(&ext, &mut xq);
        let q_verdict = quant.score_q(&xq) >= quant.threshold_q();
        let f32_score = det.score(&s.features);
        let f32_verdict = f32_score >= det.threshold();
        assert!(
            quant.agrees_with_f32(f32_score, det.threshold(), q_verdict),
            "quant verdict flipped outside the ambiguity band: \
             f32 score {f32_score}, threshold {}, bound {}",
            det.threshold(),
            quant.score_error_bound()
        );
        total += 1;
        if q_verdict != f32_verdict {
            flips += 1;
        }
    }
    assert!(total > 100, "corpus too small to mean anything");
    // Aggregate flip rate stays small on real windows: ≤ 2%.
    assert!(
        flips * 50 <= total,
        "quantization flipped {flips}/{total} verdicts (> 2%)"
    );
}

#[test]
fn fleet_bench_smoke_produces_well_formed_artifact() {
    // Built through the binary's grammar: `--streams` survives `--smoke`.
    let argv = "--streams 32 --smoke --seed 5 --threads 2".split(' ');
    let (cfg, out) = fleet_bench::cli(argv.map(String::from).collect()).expect("valid");
    assert_eq!((cfg.n_streams, cfg.seed, cfg.quantized), (32, 5, true));
    assert_eq!((cfg.parallelism, cfg.smoke), (Parallelism::Fixed(2), true));
    assert_eq!(out, "BENCH_fleet.json");
    let report = run_fleet_bench(&cfg);
    let json = report.to_json();
    for key in [
        "\"bench\"",
        "\"profile\"",
        "\"per_window\"",
        "\"batched_f32\"",
        "\"batched_quant\"",
        "\"windows_per_sec\"",
        "\"p50_ns\"",
        "\"p99_ns\"",
        "\"verdict_digest\"",
        "\"inference_drain\"",
        "\"batched_vs_per_window_speedup\"",
    ] {
        assert!(json.contains(key), "{key} missing from artifact:\n{json}");
    }
    // Same seed + same config ⇒ the deterministic blocks reproduce.
    assert_eq!(
        report.per_window.windows, report.batched_f32.windows,
        "inference mode must not change the sampling schedule"
    );
}

#[test]
fn full_fleet_determinism_and_throughput_slow() {
    // Full-size fleet (the ≥1k-stream acceptance shape): opt in via
    // EVAX_SLOW_TESTS=1, like the full fault matrix.
    if std::env::var("EVAX_SLOW_TESTS").is_err() {
        eprintln!("skipping full_fleet_determinism_and_throughput_slow; set EVAX_SLOW_TESTS=1");
        return;
    }
    let (det, feat, _) = trained(42);
    let cpu_cfg = CpuConfig::default();
    let cfg = FleetConfig {
        n_streams: 1024,
        batch_windows: 16,
        n_shards: 64,
        ..fleet_cfg(1024, InferenceMode::BatchedF32)
    };
    let json_at = |n: usize| {
        run_fleet(&cfg, &cpu_cfg, &det, &feat, Parallelism::Fixed(n)).deterministic_json()
    };
    let one = json_at(1);
    assert_eq!(one, json_at(4), "full fleet: 1 vs 4 threads diverged");
    assert_eq!(one, json_at(16), "full fleet: 1 vs 16 threads diverged");

    // The 5× batched-inference bar needs real cores to be meaningful; a
    // 1-core CI container can only measure substrate overhead (see
    // BENCH_stream.json's note for the same caveat).
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = run_fleet_bench(&FleetBenchConfig {
        n_streams: 1024,
        seed: 42,
        parallelism: Parallelism::Auto,
        quantized: true,
        smoke: false,
    });
    eprintln!(
        "fleet drain: {:.2}x batched vs per-window on {cores} cores (optimized: {})",
        report.drain.speedup,
        !cfg!(debug_assertions)
    );
    // The 5× bar is a release-build criterion: a debug build dilutes the
    // batched kernel's allocation win behind uniform per-element overhead,
    // and a <4-core box cannot realize the 4-thread speedup at all. Only a
    // release test run on adequate hardware asserts it; elsewhere the log
    // line above is the record.
    if cores >= 4 && !cfg!(debug_assertions) {
        assert!(
            report.drain.speedup >= 5.0,
            "batched drain only {:.2}x per-window throughput at {} threads on {cores} cores",
            report.drain.speedup,
            report.drain.kernel_threads
        );
    } else {
        eprintln!(
            "skipping 5x batched-drain assertion: needs >= 4 cores (have {cores}) \
             and a release build (optimized: {})",
            !cfg!(debug_assertions)
        );
    }
}
