//! Golden contract for the disabled-device path: with `DeviceConfig` off —
//! whether the untouched default or an explicitly disabled config carrying
//! live-looking timer/DMA settings — every streamed window and the final
//! architectural registers are bitwise-identical to the pre-device oracle
//! (the same trace driven directly through `Cpu::run_sampled`), and the
//! whole corpus reproduces bit-for-bit at 1, 4, and 16 kernel threads.
//! Mid-run snapshot round-trip of live timer/IRQ/DMA state is pinned in
//! `crates/sim/tests/devices.rs`.

use evax_attacks::benign::Scale;
use evax_attacks::{build_attack, build_benign, AttackClass, BenignKind, KernelParams};
use evax_core::featurize::{CollectingSink, ProgramSource, WindowSource};
use evax_core::par::{self, Parallelism};
use evax_sim::{CpuConfig, DeviceConfig, DmaConfig, Program, TimerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const INTERVAL: u64 = 200;
const MAX_INSTRS: u64 = 4_000;

/// A small mixed corpus: two attack kernels, two benign kernels.
fn small_corpus() -> Vec<Program> {
    let mut corpus = Vec::new();
    for (i, class) in [AttackClass::SpectrePht, AttackClass::FlushReload]
        .into_iter()
        .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(0xE0 + i as u64);
        corpus.push(build_attack(class, &KernelParams::default(), &mut rng));
    }
    for (i, kind) in [BenignKind::Compression, BenignKind::MatrixAi]
        .into_iter()
        .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(0xBE + i as u64);
        corpus.push(build_benign(kind, Scale(4_000), &mut rng));
    }
    corpus
}

/// A `DeviceConfig` that is disabled but carries non-default timer/DMA
/// settings — the strongest form of "off is invisible": the mere presence
/// of configuration must not perturb a single bit.
fn disabled_but_configured() -> DeviceConfig {
    DeviceConfig {
        enabled: false,
        timer: TimerConfig { period: 300 },
        dma: DmaConfig {
            period: 64,
            burst_lines: 2,
            region_lines: 32,
            irq_every: 2,
        },
    }
}

/// Streams `program` under `cfg` through the production source and folds
/// every window plus the final registers into a bit-exact trace.
fn stream_bits(program: &Program, cfg: &CpuConfig) -> Vec<u64> {
    let mut sink = CollectingSink::new();
    let result = ProgramSource::new(program, cfg, INTERVAL, MAX_INSTRS).stream(&mut sink);
    let mut bits: Vec<u64> = sink
        .into_windows()
        .into_iter()
        .flatten()
        .map(f64::to_bits)
        .collect();
    bits.extend(result.regs.iter().copied());
    bits.push(result.cycles);
    bits.push(result.committed_instructions);
    bits
}

/// The pre-device oracle: the same trace driven directly through
/// `Cpu::run_sampled` (the path every golden stream used before the device
/// subsystem existed), including the kernel-secret plant `ProgramSource`
/// performs.
fn oracle_bits(program: &Program, cfg: &CpuConfig) -> Vec<u64> {
    let mut cpu = evax_attacks::tenant_core(cfg);
    let mut bits = Vec::new();
    let result = cpu.run_sampled(program, MAX_INSTRS, INTERVAL, |s| {
        bits.extend(s.values.iter().map(|v| v.to_bits()));
        None
    });
    bits.extend(result.regs.iter().copied());
    bits.push(result.cycles);
    bits.push(result.committed_instructions);
    bits
}

#[test]
fn device_off_streams_match_the_pre_device_oracle() {
    let corpus = small_corpus();
    let default_cfg = CpuConfig::default();
    let configured_off = CpuConfig {
        devices: disabled_but_configured(),
        ..CpuConfig::default()
    };
    assert_eq!(
        evax_sim::dim_for(&default_cfg),
        evax_sim::dim_for(&configured_off),
        "a disabled device subsystem must not widen the feature vector"
    );
    for program in &corpus {
        let oracle = oracle_bits(program, &default_cfg);
        assert!(
            oracle.len() > 32,
            "{}: oracle produced no windows",
            program.name()
        );
        assert_eq!(
            stream_bits(program, &default_cfg),
            oracle,
            "{}: default-config stream diverged from the oracle",
            program.name()
        );
        assert_eq!(
            stream_bits(program, &configured_off),
            oracle,
            "{}: disabled-but-configured devices perturbed the stream",
            program.name()
        );
    }
}

#[test]
fn device_off_streams_are_identical_at_1_4_16_threads() {
    let corpus = small_corpus();
    let cfg = CpuConfig {
        devices: disabled_but_configured(),
        ..CpuConfig::default()
    };
    let at = |threads: usize| -> Vec<Vec<u64>> {
        par::map(Parallelism::Fixed(threads), &corpus, |program| {
            stream_bits(program, &cfg)
        })
    };
    let one = at(1);
    for (i, bits) in one.iter().enumerate() {
        assert!(!bits.is_empty(), "corpus entry {i} produced no trace");
    }
    assert_eq!(one, at(4), "1 vs 4 kernel threads diverged");
    assert_eq!(one, at(16), "1 vs 16 kernel threads diverged");
}
