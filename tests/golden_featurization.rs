//! Golden equivalence of the unified streaming featurization pipeline.
//!
//! PR 3 moved collection, detector deployment, and the adaptive controller
//! onto one window→feature path (`evax_core::featurize`). These tests pin
//! that refactor against in-test **oracles replicating the pre-refactor
//! algorithms** — the materializing two-pass collection (buffer every raw
//! window, fit the normalizer, normalize in a second pass) and the
//! hand-rolled adaptive sampling loop — and require **bitwise identity**:
//! same datasets (every `f32` by bits), same fitted maxima (every `f64` by
//! bits), same detection verdicts, same flag/secure-mode switch tallies,
//! and all of it invariant to the worker thread count.

use evax::attacks::benign::Scale;
use evax::attacks::{
    build_attack, build_benign, AttackClass, BenignKind, KernelParams, ATTACK_CLASSES, BENIGN_KINDS,
};
use evax::core::dataset::{Dataset, Normalizer, Sample, BENIGN_CLASS};
use evax::core::detector::{Detector, DetectorKind, TrainConfig};
use evax::core::featurize::{
    DatasetSink, Featurizer, ProgramSource, StreamStats, VerdictSink, WindowSource,
};
use evax::core::par::{self, Parallelism};
use evax::defense::{run_adaptive, AdaptiveConfig, Policy};
use evax::obs::MetricsSink;
use evax::sim::isa::Program;
use evax::sim::{CpuConfig, MitigationMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

const INTERVAL: u64 = 200;

/// A labeled corpus: attack kernels (with per-run jitter) plus benign
/// workloads, each with a seed derived deterministically from its position.
fn corpus(attacks: &[AttackClass], benigns: &[BenignKind], scale: u64) -> Vec<(usize, Program)> {
    let mut out = Vec::new();
    for (i, &class) in attacks.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0x90_1D + i as u64);
        let params = KernelParams {
            iterations: 40 + (i as u32 % 3) * 20,
            ..Default::default()
        };
        out.push((class.label(), build_attack(class, &params, &mut rng)));
    }
    for (i, &kind) in benigns.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0xFEA7 + i as u64);
        out.push((BENIGN_CLASS, build_benign(kind, Scale(scale), &mut rng)));
    }
    out
}

/// ORACLE — the pre-refactor materializing collection: drive `run_sampled`
/// directly (no featurize-module involvement), buffer every raw window,
/// fit the normalizer over the full matrix, then normalize in a second pass.
fn oracle_collect(corpus: &[(usize, Program)], max_instrs: u64) -> (Dataset, Normalizer) {
    let mut all: Vec<(usize, Vec<Vec<f64>>)> = Vec::new();
    for (class, program) in corpus {
        let mut cpu = evax::attacks::tenant_core(&CpuConfig::default());
        let mut windows: Vec<Vec<f64>> = Vec::new();
        cpu.run_sampled(program, max_instrs, INTERVAL, |s| {
            windows.push(s.values);
            None
        });
        all.push((*class, windows));
    }
    let mut norm = Normalizer::new(evax::sim::HPC_BASE_DIM);
    for (_, windows) in &all {
        for w in windows {
            norm.observe(w);
        }
    }
    let mut ds = Dataset::new();
    for (class, windows) in &all {
        for w in windows {
            ds.push(Sample::new(norm.normalize(w), *class));
        }
    }
    (ds, norm)
}

/// The streaming path under test: per-stream fit (StreamStats) fanned out
/// over `par`, merged in canonical order, then a re-simulating emit pass.
fn streaming_collect(
    corpus: &[(usize, Program)],
    max_instrs: u64,
    parallelism: Parallelism,
) -> (Dataset, StreamStats) {
    let cpu_cfg = CpuConfig::default();
    let dim = evax::sim::HPC_BASE_DIM;
    let per_run = par::map(parallelism, corpus, |(_, program)| {
        let mut stats = StreamStats::new(dim);
        ProgramSource::new(program, &cpu_cfg, INTERVAL, max_instrs).stream(&mut stats);
        stats
    });
    let mut stats = StreamStats::new(dim);
    for s in &per_run {
        stats.merge(s);
    }
    let norm = stats.normalizer();
    let per_ds = par::map(parallelism, corpus, |(class, program)| {
        let mut sink = DatasetSink::new(&norm, *class);
        ProgramSource::new(program, &cpu_cfg, INTERVAL, max_instrs).stream(&mut sink);
        sink.into_dataset()
    });
    let mut ds = Dataset::new();
    for d in per_ds {
        ds.extend(d);
    }
    (ds, stats)
}

/// Asserts two datasets are identical with floats compared by bits.
fn assert_datasets_identical(label: &str, a: &Dataset, b: &Dataset) {
    assert_eq!(a.len(), b.len(), "[{label}] sample count diverged");
    for (i, (sa, sb)) in a.samples.iter().zip(&b.samples).enumerate() {
        assert_eq!(sa.class, sb.class, "[{label}] sample {i} class diverged");
        assert_eq!(
            sa.features.len(),
            sb.features.len(),
            "[{label}] sample {i} dimension diverged"
        );
        for (j, (va, vb)) in sa.features.iter().zip(&sb.features).enumerate() {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "[{label}] sample {i} feature {j} diverged: {va} vs {vb}"
            );
        }
    }
}

/// Asserts two normalizers fitted the exact same maxima, bit for bit.
fn assert_maxima_identical(label: &str, a: &Normalizer, b: &Normalizer) {
    assert_eq!(a.dim(), b.dim(), "[{label}] normalizer dim diverged");
    for (i, (ma, mb)) in a.maxima().iter().zip(b.maxima()).enumerate() {
        assert_eq!(
            ma.to_bits(),
            mb.to_bits(),
            "[{label}] max {i} diverged: {ma} vs {mb}"
        );
    }
}

fn small_corpus() -> Vec<(usize, Program)> {
    corpus(
        &[
            AttackClass::SpectrePht,
            AttackClass::Meltdown,
            AttackClass::FlushReload,
            AttackClass::Lvi,
        ],
        &[
            BenignKind::Compression,
            BenignKind::MatrixAi,
            BenignKind::NetworkSim,
        ],
        3_000,
    )
}

/// The tentpole acceptance: streaming collection reproduces the
/// materializing oracle bit for bit — dataset and fitted maxima — at one
/// thread and at several, including more threads than work items.
#[test]
fn streaming_collection_matches_materializing_oracle_bitwise() {
    let corpus = small_corpus();
    let (oracle_ds, oracle_norm) = oracle_collect(&corpus, 3_000);
    assert!(
        oracle_ds.len() > 50,
        "oracle corpus too small to be meaningful"
    );
    for threads in [1, 4, 16] {
        let (ds, stats) = streaming_collect(&corpus, 3_000, Parallelism::Fixed(threads));
        let label = format!("threads={threads}");
        assert_datasets_identical(&label, &oracle_ds, &ds);
        assert_maxima_identical(&label, &oracle_norm, &stats.normalizer());
        assert_eq!(
            stats.count(),
            oracle_ds.len() as u64,
            "[{label}] window count"
        );
    }
}

/// Detection verdicts through the streaming deployment sink are identical
/// to the pre-refactor per-window normalize→classify loop.
#[test]
fn streaming_verdicts_match_oracle() {
    let corpus = small_corpus();
    let (ds, norm) = oracle_collect(&corpus, 3_000);
    let mut rng = StdRng::seed_from_u64(21);
    let mut detector = Detector::train(
        DetectorKind::Evax,
        &ds,
        vec![],
        &TrainConfig::default(),
        &mut rng,
    );
    detector.tune_for_tpr(&ds, 0.99);
    let featurizer = Featurizer::baseline(norm.clone());

    for (class, program) in &corpus {
        // Oracle: the old deployment loop — materialize each window,
        // normalize (allocating), classify.
        let mut cpu = evax::attacks::tenant_core(&CpuConfig::default());
        let mut oracle_verdicts = Vec::new();
        cpu.run_sampled(program, 3_000, INTERVAL, |s| {
            oracle_verdicts.push(detector.classify(&norm.normalize(&s.values)));
            None
        });

        // Streaming: the shared stage chain.
        let mut sink = VerdictSink::new(&featurizer, &detector);
        ProgramSource::new(program, &CpuConfig::default(), INTERVAL, 3_000).stream(&mut sink);
        assert_eq!(
            sink.verdicts(),
            oracle_verdicts.as_slice(),
            "verdicts diverged on class {class}"
        );
    }
}

/// The adaptive controller on the shared pipeline reproduces the
/// pre-refactor hand-rolled sampling loop exactly: same flags, same
/// secure-mode instruction tally, same mode-switch cycles (visible in the
/// bit-identical cycle count and IPC series), same architectural state.
#[test]
fn adaptive_controller_matches_handrolled_oracle() {
    let corpus = small_corpus();
    let (ds, norm) = oracle_collect(&corpus, 3_000);
    let mut rng = StdRng::seed_from_u64(22);
    let mut detector = Detector::train(
        DetectorKind::Evax,
        &ds,
        vec![],
        &TrainConfig::default(),
        &mut rng,
    );
    detector.tune_for_tpr(&ds, 0.99);
    let acfg = AdaptiveConfig {
        sample_interval: INTERVAL,
        secure_window: 2_000,
        policy: Policy::FenceSpectre,
    };
    let cyc_idx = evax::sim::hpc_index("cycles").unwrap();
    let inst_idx = evax::sim::hpc_index("commit.CommittedInsts").unwrap();

    for (class, program) in &corpus {
        // Oracle: the old run_adaptive body, verbatim state machine.
        let mut cpu = evax::attacks::tenant_core(&CpuConfig::default());
        let mut flags = 0u64;
        let mut secure_instructions = 0u64;
        let mut secure_remaining = 0u64;
        let mut ipc_series: Vec<(u64, f64)> = Vec::new();
        let result = cpu.run_sampled(program, 20_000, acfg.sample_interval, |s| {
            let cycles = s.values[cyc_idx].max(1.0);
            ipc_series.push((s.instructions, s.values[inst_idx] / cycles));
            let malicious = detector.classify(&norm.normalize(&s.values));
            if malicious {
                flags += 1;
                secure_remaining = acfg.secure_window;
                secure_instructions += acfg.sample_interval;
                return Some(acfg.policy.mode());
            }
            if secure_remaining > 0 {
                secure_remaining = secure_remaining.saturating_sub(acfg.sample_interval);
                secure_instructions += acfg.sample_interval;
                if secure_remaining == 0 {
                    return Some(MitigationMode::None);
                }
            }
            None
        });

        // Streaming: the controller as a WindowSink on the shared source.
        let run = run_adaptive(
            &CpuConfig::default(),
            program,
            &Featurizer::baseline(norm.clone()),
            &detector,
            &acfg,
            20_000,
            &MetricsSink::default(),
        );
        let label = format!("class {class}");
        assert_eq!(run.flags, flags, "[{label}] flag count diverged");
        assert_eq!(
            run.secure_instructions, secure_instructions,
            "[{label}] secure-mode tally diverged"
        );
        assert_eq!(
            run.result.cycles, result.cycles,
            "[{label}] cycles diverged"
        );
        assert_eq!(
            run.result.committed_instructions, result.committed_instructions,
            "[{label}] committed count diverged"
        );
        assert_eq!(run.result.regs, result.regs, "[{label}] registers diverged");
        assert_eq!(
            run.ipc_series.len(),
            ipc_series.len(),
            "[{label}] IPC series length diverged"
        );
        for (w, ((ia, va), (ib, vb))) in run.ipc_series.iter().zip(&ipc_series).enumerate() {
            assert_eq!(ia, ib, "[{label}] window {w} instruction mark diverged");
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "[{label}] window {w} IPC diverged: {va} vs {vb}"
            );
        }
    }
}

/// Slow-gated full-registry variant (the CI slow step runs this): every
/// attack class and every benign kind, a larger instruction budget, and
/// thread counts up to past the corpus size.
#[test]
fn golden_featurization_full_registry_slow() {
    if std::env::var("EVAX_SLOW_TESTS").is_err() {
        eprintln!("skipping golden_featurization_full_registry_slow; set EVAX_SLOW_TESTS=1");
        return;
    }
    let corpus = corpus(&ATTACK_CLASSES, &BENIGN_KINDS, 12_000);
    let (oracle_ds, oracle_norm) = oracle_collect(&corpus, 12_000);
    for threads in [1, 8, 40] {
        let (ds, stats) = streaming_collect(&corpus, 12_000, Parallelism::Fixed(threads));
        let label = format!("full registry, threads={threads}");
        assert_datasets_identical(&label, &oracle_ds, &ds);
        assert_maxima_identical(&label, &oracle_norm, &stats.normalizer());
    }
}
