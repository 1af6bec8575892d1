//! Golden guard-rails for fast-forward simulation and snapshot/restore.
//!
//! * A sampled run interrupted by `snapshot_with_cursor` → byte round trip →
//!   `restore_with_cursor` must be **bitwise identical** (windows, stats,
//!   architectural state) to the same run continued without serialization —
//!   including across mid-run `set_mitigation` switches, and regardless of
//!   how many threads drive independent comparisons (1/4/16).
//! * A schedule with `warmup_instrs == 0` must be indistinguishable from
//!   plain `run_sampled` (the no-breakage contract for existing callers).
//! * The snapshot file reader must reject truncated/corrupt files with
//!   typed `EvaxError`s, never a diverged simulation.
//! * Slow-gated: fast-forward warm-up is approximate **by contract**; the
//!   drift test quantifies it across the full registry and asserts the
//!   per-program verdict flip rate stays bounded (same spirit as
//!   `QuantLinear`'s agreement bound).
//! * The functional mode must stay much faster than the detailed core it
//!   approximates, or fast-forwarding buys nothing.

use evax::attacks::benign::Scale;
use evax::attacks::{
    build_attack, build_benign, AttackClass, BenignKind, KernelParams, ATTACK_CLASSES, BENIGN_KINDS,
};
use evax::core::collect::{collect_dataset, CollectConfig};
use evax::core::prelude::{Detector, DetectorKind, EvaxError, Featurizer, TrainConfig};
use evax::sim::isa::Program;
use evax::sim::{
    Cpu, CpuConfig, MitigationMode, PipelineStats, SampleSchedule, SampledCursor, SampledStep,
    Snapshot, SnapshotError, HPC_BASE_DIM,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const INTERVAL: u64 = 500;
const MAX_INSTRS: u64 = 40_000;

fn attack_program(class: AttackClass, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = KernelParams {
        iterations: 1024,
        ..Default::default()
    };
    build_attack(class, &params, &mut rng)
}

fn benign_program(kind: BenignKind, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    build_benign(kind, Scale(12_000), &mut rng)
}

fn fresh_cpu() -> Cpu {
    evax::attacks::tenant_core(&CpuConfig::default())
}

/// One closed sampling window, floats captured by bits.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WindowRec {
    instructions: u64,
    cycle: u64,
    bits: Vec<u64>,
}

/// Everything observable at the end of a run.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    windows: Vec<WindowRec>,
    stats: PipelineStats,
    regs: [u64; 32],
    committed: u64,
    cycles: u64,
    halted: bool,
}

/// Drives `cursor` until `Done`, recording windows; `switch` may request a
/// mitigation change keyed on the **global** window index (so interrupted
/// and uninterrupted runs switch at the same point).
fn drive(
    cpu: &mut Cpu,
    program: &Program,
    cursor: &mut SampledCursor,
    windows: &mut Vec<WindowRec>,
    switch: &Option<(usize, MitigationMode)>,
) -> evax::sim::RunResult {
    let mut values = vec![0.0f64; HPC_BASE_DIM];
    loop {
        match cursor.next_window_into(cpu, program, &mut values) {
            SampledStep::Window {
                instructions,
                cycle,
            } => {
                if let Some((at, mode)) = switch {
                    if *at == windows.len() {
                        cpu.set_mitigation(*mode);
                    }
                }
                windows.push(WindowRec {
                    instructions,
                    cycle,
                    bits: values.iter().map(|v| v.to_bits()).collect(),
                });
            }
            SampledStep::Done(r) => return *r,
        }
    }
}

/// Runs `program` twice with a quiesce-and-checkpoint after `split_after`
/// windows: once continuing in place, once resuming from the snapshot after
/// a full byte round trip. Returns both outcomes (they must be identical).
fn interrupted_vs_resumed(
    program: &Program,
    schedule: SampleSchedule,
    split_after: usize,
    switch: Option<(usize, MitigationMode)>,
) -> (Outcome, Outcome) {
    // Phase 1: common prefix up to the split point.
    let mut cpu = fresh_cpu();
    let mut cursor = cpu.begin_sampled_with_schedule(MAX_INSTRS, INTERVAL, schedule);
    let mut prefix = Vec::new();
    let mut values = vec![0.0f64; HPC_BASE_DIM];
    let mut prefix_result = None;
    while prefix.len() < split_after {
        match cursor.next_window_into(&mut cpu, program, &mut values) {
            SampledStep::Window {
                instructions,
                cycle,
            } => {
                if let Some((at, mode)) = switch {
                    if at == prefix.len() {
                        cpu.set_mitigation(mode);
                    }
                }
                prefix.push(WindowRec {
                    instructions,
                    cycle,
                    bits: values.iter().map(|v| v.to_bits()).collect(),
                });
            }
            SampledStep::Done(r) => {
                prefix_result = Some(*r);
                break;
            }
        }
    }
    // Checkpoint (quiesces the core) and round-trip through the on-disk
    // byte format — the resumed run must see exactly what a reader would.
    let snap = cpu.snapshot_with_cursor(&cursor);
    let snap = Snapshot::from_bytes(&snap.to_bytes()).expect("self round trip");

    let outcome = |cpu: &mut Cpu, cursor: &mut SampledCursor, windows: Vec<WindowRec>, early| {
        let mut windows = windows;
        let result = match early {
            Some(r) => r,
            None => drive(cpu, program, cursor, &mut windows, &switch),
        };
        Outcome {
            windows,
            stats: cpu.stats().clone(),
            regs: result.regs,
            committed: result.committed_instructions,
            cycles: result.cycles,
            halted: result.halted,
        }
    };

    // Phase 2a: continue in place.
    let continued = outcome(&mut cpu, &mut cursor, prefix.clone(), prefix_result.clone());
    // Phase 2b: resume from the checkpoint on a fresh core.
    let (mut rcpu, mut rcursor) =
        Cpu::restore_with_cursor(CpuConfig::default(), &snap).expect("restore");
    let resumed = outcome(&mut rcpu, &mut rcursor, prefix, prefix_result);
    (continued, resumed)
}

/// The acceptance criterion: snapshot→restore→run bitwise-equal to the
/// uninterrupted detailed run, for attack and benign programs, with and
/// without a mid-run mitigation switch, driven at 1, 4 and 16 threads.
#[test]
fn snapshot_resume_is_bitwise_identical_at_1_4_16_threads() {
    type Case = (String, Program, Option<(usize, MitigationMode)>);
    let cases: Vec<Case> = vec![
        (
            "spectre_pht".into(),
            attack_program(AttackClass::SpectrePht, 0xF0),
            None,
        ),
        (
            "meltdown+fence".into(),
            attack_program(AttackClass::Meltdown, 0xF1),
            Some((4, MitigationMode::FenceSpectre)),
        ),
        (
            "lvi+invisispec".into(),
            attack_program(AttackClass::Lvi, 0xF2),
            Some((1, MitigationMode::InvisiSpecFuturistic)),
        ),
        (
            "rowhammer".into(),
            attack_program(AttackClass::Rowhammer, 0xF3),
            None,
        ),
        (
            "compression".into(),
            benign_program(BenignKind::Compression, 0xF4),
            Some((2, MitigationMode::FenceFuturistic)),
        ),
        (
            "network_sim".into(),
            benign_program(BenignKind::NetworkSim, 0xF5),
            None,
        ),
    ];

    let run_all = |threads: usize| -> Vec<(String, Outcome)> {
        let mut out: Vec<(String, Outcome)> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for chunk in cases.chunks(cases.len().div_ceil(threads)) {
                handles.push(scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|(label, program, switch)| {
                            let (continued, resumed) = interrupted_vs_resumed(
                                program,
                                SampleSchedule::default(),
                                3,
                                *switch,
                            );
                            assert_eq!(
                                continued, resumed,
                                "[{label}] resumed run diverged from continued run"
                            );
                            (label.clone(), continued)
                        })
                        .collect::<Vec<_>>()
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("comparison thread"))
                .collect()
        });
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    };

    let base = run_all(1);
    assert!(
        base.iter().all(|(_, o)| o.windows.len() > 3),
        "cases must run past the split point"
    );
    for threads in [4usize, 16] {
        assert_eq!(
            base,
            run_all(threads),
            "outcomes must not depend on thread count ({threads} threads)"
        );
    }
}

/// `warmup_instrs == 0` reduces the schedule to plain detailed sampling:
/// `run_sampled_with_schedule` must be indistinguishable from `run_sampled`.
#[test]
fn zero_warmup_schedule_is_plain_run_sampled() {
    for (label, program) in [
        ("fallout", attack_program(AttackClass::Fallout, 0xA0)),
        ("astar", benign_program(BenignKind::Astar, 0xA1)),
    ] {
        let mut plain_windows = Vec::new();
        let mut cpu = fresh_cpu();
        let plain = cpu.run_sampled(&program, MAX_INSTRS, INTERVAL, |s| {
            plain_windows.push((s.instructions, s.cycle, s.values.clone()));
            None
        });
        let plain_stats = cpu.stats().clone();

        let mut sched_windows = Vec::new();
        let mut cpu = fresh_cpu();
        let sched = cpu.run_sampled_with_schedule(
            &program,
            MAX_INSTRS,
            INTERVAL,
            SampleSchedule {
                warmup_instrs: 0,
                detail_instrs: INTERVAL,
            },
            |s| {
                sched_windows.push((s.instructions, s.cycle, s.values.clone()));
                None
            },
        );
        let sched_stats = cpu.stats().clone();

        assert_eq!(plain_stats, sched_stats, "[{label}] stats diverged");
        assert_eq!(plain.regs, sched.regs, "[{label}] registers diverged");
        assert_eq!(plain.cycles, sched.cycles, "[{label}] cycles diverged");
        assert_eq!(
            plain_windows.len(),
            sched_windows.len(),
            "[{label}] window count diverged"
        );
        for (w, (a, b)) in plain_windows.iter().zip(&sched_windows).enumerate() {
            assert_eq!(a.0, b.0, "[{label}] window {w} instruction mark");
            assert_eq!(a.1, b.1, "[{label}] window {w} cycle");
            for (i, (va, vb)) in a.2.iter().zip(&b.2).enumerate() {
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "[{label}] window {w} HPC {i} diverged"
                );
            }
        }
    }
}

/// The snapshot file reader rejects every corruption mode with a typed
/// error (via the `EvaxError` io conventions) and never yields a snapshot
/// that silently diverges.
#[test]
fn snapshot_file_reader_rejects_corruption_with_typed_errors() {
    use evax::core::io::{read_snapshot_file, write_snapshot_file};

    let program = attack_program(AttackClass::SpectrePht, 0xC0);
    let mut cpu = fresh_cpu();
    cpu.run(&program, 5_000);
    let snap = cpu.snapshot();

    let dir = std::env::temp_dir();
    let path = dir.join(format!("evax_golden_snapshot_{}.bin", std::process::id()));
    write_snapshot_file(&snap, &path).expect("write snapshot");

    // Clean round trip restores an identical core.
    let read = read_snapshot_file(&path).expect("read snapshot");
    assert_eq!(read, snap);
    let restored = Cpu::restore(CpuConfig::default(), &read).expect("restore");
    assert_eq!(restored.stats(), cpu.stats());

    let bytes = std::fs::read(&path).expect("raw bytes");

    // Bad magic → Corrupt (header).
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    std::fs::write(&path, &bad).unwrap();
    match read_snapshot_file(&path) {
        Err(EvaxError::Corrupt { what, .. }) => assert!(what.contains("header"), "{what}"),
        other => panic!("bad magic must be Corrupt, got {other:?}"),
    }

    // Flipped payload byte → Corrupt (checksum).
    let mut bad = bytes.clone();
    let mid = bytes.len() / 2;
    bad[mid] ^= 0x01;
    std::fs::write(&path, &bad).unwrap();
    match read_snapshot_file(&path) {
        Err(EvaxError::Corrupt { what, .. }) => assert!(what.contains("checksum"), "{what}"),
        other => panic!("bit flip must be Corrupt, got {other:?}"),
    }

    // Truncation → Parse or Corrupt, never Ok.
    for cut in [bytes.len() - 3, bytes.len() / 2, 9] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        match read_snapshot_file(&path) {
            Err(EvaxError::Parse { .. }) | Err(EvaxError::Corrupt { .. }) => {}
            other => panic!("truncation at {cut} must be typed, got {other:?}"),
        }
    }

    // Missing file → Io with the path attached.
    std::fs::remove_file(&path).unwrap();
    match read_snapshot_file(&path) {
        Err(EvaxError::Io { path: Some(p), .. }) => assert_eq!(p, path),
        other => panic!("missing file must be Io, got {other:?}"),
    }

    // Config mismatch is refused before any state is loaded.
    let other_cfg = CpuConfig {
        rob_entries: 64,
        ..CpuConfig::default()
    };
    assert!(matches!(
        Cpu::restore(other_cfg, &snap),
        Err(SnapshotError::ConfigMismatch { .. })
    ));
    // A cursor-less snapshot cannot resume a sampled run.
    assert!(matches!(
        Cpu::restore_with_cursor(CpuConfig::default(), &snap),
        Err(SnapshotError::Malformed { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite: a `SampledCursor` resumed across a snapshot boundary —
    /// any program, any split point, with or without a fast-forward
    /// schedule, including a mid-run `set_mitigation` switch — is bitwise
    /// equal to the uninterrupted run.
    #[test]
    fn cursor_resume_is_bitwise_equal_for_any_split(
        program_pick in 0usize..6,
        split_after in 1usize..6,
        fast_forward in any::<bool>(),
        switch_raw in 0usize..12,
    ) {
        let program = match program_pick {
            0 => attack_program(AttackClass::SpectrePht, 0xB0),
            1 => attack_program(AttackClass::Lvi, 0xB1),
            2 => attack_program(AttackClass::Rowhammer, 0xB2),
            3 => attack_program(AttackClass::PrimeProbe, 0xB3),
            4 => benign_program(BenignKind::MatrixAi, 0xB4),
            _ => benign_program(BenignKind::Scheduler, 0xB5),
        };
        let schedule = if fast_forward {
            SampleSchedule { warmup_instrs: 2 * INTERVAL, detail_instrs: INTERVAL }
        } else {
            SampleSchedule::default()
        };
        // Lower half of the range selects a switch window; upper half means
        // no mid-run switch at all.
        let switch = (switch_raw < 6).then_some((switch_raw, MitigationMode::FenceSpectre));
        let (continued, resumed) =
            interrupted_vs_resumed(&program, schedule, split_after, switch);
        prop_assert_eq!(continued, resumed);
    }
}

/// Slow-gated honesty check for the approximate warm-up: across the full
/// registry, the per-program detector verdict (any window flagged) under
/// the fast-forward schedule may flip relative to all-detailed sampling on
/// only a bounded fraction of programs.
#[test]
fn fast_forward_verdict_drift_is_bounded_slow() {
    if std::env::var("EVAX_SLOW_TESTS").is_err() {
        eprintln!("skipping fast_forward_verdict_drift_is_bounded_slow; set EVAX_SLOW_TESTS=1");
        return;
    }
    let interval = 200u64;
    let max_instrs = 12_000u64;
    let schedule = SampleSchedule {
        warmup_instrs: 3 * interval,
        detail_instrs: interval,
    };

    // Small training corpus, tuned to 99% TPR — same recipe as the bench.
    let (ds, norm) = collect_dataset(
        &CollectConfig {
            interval,
            runs_per_attack: 1,
            runs_per_benign: 1,
            max_instrs: 3_000,
            benign_scale: 3_000,
            ..Default::default()
        },
        42,
    );
    let mut rng = StdRng::seed_from_u64(42);
    let mut detector = Detector::train(
        DetectorKind::Evax,
        &ds,
        vec![],
        &TrainConfig::default(),
        &mut rng,
    );
    detector.tune_for_tpr(&ds, 0.99);
    let featurizer = Featurizer::new(norm, detector.engineered().to_vec());

    let verdict = |program: &Program, schedule: SampleSchedule| -> bool {
        let mut cpu = fresh_cpu();
        let mut base = vec![0.0f32; featurizer.base_dim()];
        let mut flagged = false;
        cpu.run_sampled_with_schedule(program, max_instrs, interval, schedule, |s| {
            featurizer.normalizer().normalize_into(&s.values, &mut base);
            flagged |= detector.classify(&base);
            None
        });
        flagged
    };

    let mut programs: Vec<(String, Program)> = Vec::new();
    for class in ATTACK_CLASSES {
        let mut rng = StdRng::seed_from_u64(0xD41F + class as u64);
        let params = KernelParams {
            iterations: 256,
            ..Default::default()
        };
        programs.push((format!("{class}"), build_attack(class, &params, &mut rng)));
    }
    for kind in BENIGN_KINDS {
        let mut rng = StdRng::seed_from_u64(0xD41F + kind as u64);
        programs.push((
            format!("{kind}"),
            build_benign(kind, Scale(max_instrs), &mut rng),
        ));
    }

    let mut flips = Vec::new();
    for (label, program) in &programs {
        let detailed = verdict(program, SampleSchedule::default());
        let ff = verdict(program, schedule);
        if detailed != ff {
            flips.push(format!("{label}: detailed={detailed} ff={ff}"));
        }
    }
    let flip_rate = flips.len() as f64 / programs.len() as f64;
    eprintln!(
        "drift: {}/{} programs flipped (rate {flip_rate:.3}): {flips:?}",
        flips.len(),
        programs.len()
    );
    assert!(
        flip_rate <= 0.25,
        "fast-forward verdict flip rate {flip_rate:.3} exceeds bound 0.25: {flips:?}"
    );
}

/// Retired instructions per second of `mix` on fresh cores, in functional
/// (`detailed == false`) or detailed mode: the fastest of `reps` passes,
/// the noise-robust estimate on a shared machine.
fn mix_ips(mix: &[Program], max_instrs: u64, detailed: bool, reps: u32) -> f64 {
    let mut instrs = 0u64;
    let mut best_secs = f64::INFINITY;
    for _ in 0..reps {
        let started = std::time::Instant::now();
        instrs = mix
            .iter()
            .map(|program| {
                let mut cpu = fresh_cpu();
                if detailed {
                    cpu.run(program, max_instrs).committed_instructions
                } else {
                    cpu.fast_forward(program, max_instrs)
                }
            })
            .sum();
        best_secs = best_secs.min(started.elapsed().as_secs_f64());
    }
    assert!(instrs > 0, "the mix retired nothing");
    instrs as f64 / best_secs.max(1e-9)
}

#[test]
fn functional_mode_is_much_faster_than_detailed_on_a_slice() {
    let mut rng = StdRng::seed_from_u64(7);
    let params = KernelParams {
        iterations: 24,
        ..Default::default()
    };
    let slice: Vec<Program> = ATTACK_CLASSES[..4]
        .iter()
        .map(|&class| build_attack(class, &params, &mut rng))
        .collect();
    mix_ips(&slice, 20_000, false, 1);
    let functional = mix_ips(&slice, 20_000, false, 2);
    let detailed = mix_ips(&slice, 20_000, true, 1);
    assert!(
        functional > 3.0 * detailed,
        "functional {functional:.0} ips vs detailed {detailed:.0} ips"
    );
}
