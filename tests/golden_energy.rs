//! Golden contract of the energy sensor (PR 9).
//!
//! The energy model must be **bitwise-invisible when disabled**: the
//! default configuration emits exactly the baseline-133 HPC stream it
//! always has, at every worker thread count, and enabling the sensor only
//! *appends* `energy.*` columns — the base 133 stay bit-identical. When
//! enabled, the counters are exact `u64` linear maps of the base event
//! counts, so every sampled window satisfies the weighted-sum identity and
//! the whole stream is deterministic under any `SampleSchedule`
//! warmup/detail split. Property tests pin both.

use evax::attacks::benign::Scale;
use evax::attacks::{build_attack, build_benign, AttackClass, BenignKind, KernelParams};
use evax::core::featurize::{CollectingSink, ProgramSource, WindowSource};
use evax::core::par::{self, Parallelism};
use evax::sim::isa::Program;
use evax::sim::{CpuConfig, FeatureSchema, SampleSchedule, SensorConfig, ENERGY_DIM, HPC_BASE_DIM};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const INTERVAL: u64 = 200;
const MAX_INSTRS: u64 = 4_000;

fn energy_cfg() -> CpuConfig {
    CpuConfig {
        sensor: SensorConfig {
            energy: true,
            ..Default::default()
        },
        ..CpuConfig::default()
    }
}

fn small_corpus() -> Vec<Program> {
    let mut out = Vec::new();
    for (i, class) in [AttackClass::SpectrePht, AttackClass::FlushReload]
        .into_iter()
        .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(0xE0 + i as u64);
        out.push(build_attack(class, &KernelParams::default(), &mut rng));
    }
    for (i, kind) in [BenignKind::Compression, BenignKind::MatrixAi]
        .into_iter()
        .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(0xBE + i as u64);
        out.push(build_benign(kind, Scale(MAX_INSTRS), &mut rng));
    }
    out
}

fn collect(program: &Program, cfg: &CpuConfig) -> Vec<Vec<f64>> {
    let mut sink = CollectingSink::new();
    ProgramSource::new(program, cfg, INTERVAL, MAX_INSTRS).stream(&mut sink);
    sink.into_windows()
}

/// ORACLE — the pre-sensor collection path: `run_sampled` on a default
/// (sensor-free) configuration, no featurize-module involvement.
fn oracle_windows(program: &Program) -> Vec<Vec<f64>> {
    let mut cpu = evax::attacks::tenant_core(&CpuConfig::default());
    let mut windows = Vec::new();
    cpu.run_sampled(program, MAX_INSTRS, INTERVAL, |s| {
        windows.push(s.values);
        None
    });
    windows
}

#[test]
fn disabled_sensor_is_bitwise_invisible_at_every_thread_count() {
    let corpus = small_corpus();
    let golden: Vec<Vec<Vec<f64>>> = corpus.iter().map(oracle_windows).collect();

    for threads in [1usize, 4, 16] {
        let runs = par::map(Parallelism::Fixed(threads), &corpus, |program| {
            collect(program, &CpuConfig::default())
        });
        for (run, gold) in runs.iter().zip(&golden) {
            assert_eq!(run.len(), gold.len(), "window count diverged");
            for (w, g) in run.iter().zip(gold) {
                assert_eq!(w.len(), HPC_BASE_DIM, "disabled sensor widened a window");
                for (a, b) in w.iter().zip(g) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "disabled-sensor window diverged from the oracle at {threads} threads"
                    );
                }
            }
        }
    }
}

#[test]
fn enabling_the_sensor_only_appends_columns() {
    let corpus = small_corpus();
    let cfg = energy_cfg();
    for program in &corpus {
        let base = collect(program, &CpuConfig::default());
        let extended = collect(program, &cfg);
        assert_eq!(
            base.len(),
            extended.len(),
            "enabling energy changed sampling"
        );
        for (b, e) in base.iter().zip(&extended) {
            assert_eq!(e.len(), HPC_BASE_DIM + ENERGY_DIM);
            for (i, (x, y)) in b.iter().zip(e.iter()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "base column {i} diverged when the energy tail was enabled"
                );
            }
        }
    }
}

/// Recomputes one window's `energy.*` tail from its base-counter deltas
/// via the published weight table — the exact integer identity the module
/// documents. Windows carry per-counter deltas, and the energy counters
/// are `u64` linear maps, so the identity holds bitwise in `f64`.
fn recompute_energy(schema: &FeatureSchema, w: &[f64], s: &SensorConfig) -> [f64; ENERGY_DIM] {
    let col = |name: &str| {
        w[schema
            .index(name)
            .unwrap_or_else(|| panic!("schema lost column {name}"))]
    };
    let wt = &s.weights;
    let class_commits =
        col("commit.Loads") + col("commit.Stores") + col("commit.Branches") + col("commit.Membars");
    let core = wt.commit_load as f64 * col("commit.Loads")
        + wt.commit_store as f64 * col("commit.Stores")
        + wt.commit_branch as f64 * col("commit.Branches")
        + wt.commit_membar as f64 * col("commit.Membars")
        + wt.commit_other as f64 * (col("commit.CommittedInsts") - class_commits);
    let l1 = |p: &str| {
        wt.l1_hit as f64 * (col(&format!("{p}.ReadReq_hits")) + col(&format!("{p}.WriteReq_hits")))
            + wt.l1_miss as f64
                * (col(&format!("{p}.ReadReq_misses")) + col(&format!("{p}.WriteReq_misses")))
            + wt.writeback as f64 * col(&format!("{p}.writebacks"))
    };
    let l2 = wt.l2_hit as f64 * (col("l2.ReadReq_hits") + col("l2.WriteReq_hits"))
        + wt.l2_miss as f64 * (col("l2.ReadReq_misses") + col("l2.WriteReq_misses"))
        + wt.writeback as f64 * col("l2.writebacks");
    let tlb_side = |p: &str| {
        wt.tlb_hit as f64 * (col(&format!("{p}.rdHits")) + col(&format!("{p}.wrHits")))
            + wt.tlb_miss as f64 * (col(&format!("{p}.rdMisses")) + col(&format!("{p}.wrMisses")))
    };
    let tlb = tlb_side("dtlb") + tlb_side("itlb");
    let squash = wt.squash as f64 * (col("commit.SquashedInsts") + col("iew.ExecSquashedInsts"));
    let dram = wt.dram_activate as f64 * col("dram.activations")
        + wt.dram_precharge as f64 * col("dram.precharges")
        + wt.dram_burst as f64 * (col("dram.readReqs") + col("dram.writeReqs"))
        + wt.dram_refresh as f64 * col("dram.refreshes");
    let stat = wt.static_per_cycle as f64 * col("cycles");
    let total = core + l1("icache") + l1("dcache") + l2 + tlb + squash + dram + stat;
    [
        core,
        l1("icache"),
        l1("dcache"),
        l2,
        tlb,
        squash,
        dram,
        stat,
        total,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under an arbitrary warmup/detail split, every window's energy tail
    /// equals the weighted sum of its base-counter deltas (exact, bitwise
    /// in `f64`), and the run is deterministic: a second identical run
    /// reproduces every bit.
    #[test]
    fn energy_windows_are_additive_and_deterministic(
        seed in 0u64..64,
        warmup_units in 0u64..4,
        detail_units in 1u64..4,
        attack in any::<bool>(),
    ) {
        let cfg = energy_cfg();
        let schema = FeatureSchema::for_config(&cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        let program = if attack {
            build_attack(AttackClass::SpectrePht, &KernelParams::default(), &mut rng)
        } else {
            build_benign(BenignKind::Compression, Scale(MAX_INSTRS), &mut rng)
        };
        // `warmup_units == 0` disables fast-forwarding entirely — the
        // all-detailed baseline split is part of the property's domain.
        let schedule = SampleSchedule {
            warmup_instrs: warmup_units * INTERVAL,
            detail_instrs: detail_units * INTERVAL,
        };

        let run = |()| {
            let mut cpu = evax::attacks::tenant_core(&cfg);
            let mut windows: Vec<Vec<f64>> = Vec::new();
            cpu.run_sampled_with_schedule(&program, MAX_INSTRS, INTERVAL, schedule, |s| {
                windows.push(s.values);
                None
            });
            windows
        };
        let windows = run(());
        prop_assert!(!windows.is_empty(), "no windows sampled");
        for w in &windows {
            prop_assert_eq!(w.len(), HPC_BASE_DIM + ENERGY_DIM);
            let expect = recompute_energy(&schema, w, &cfg.sensor);
            for (i, (&got, want)) in w[HPC_BASE_DIM..].iter().zip(expect).enumerate() {
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "energy column {} diverged from the weighted base-delta sum",
                    i
                );
            }
        }

        let again = run(());
        prop_assert_eq!(windows.len(), again.len(), "rerun changed window count");
        for (a, b) in windows.iter().zip(&again) {
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "rerun diverged bitwise");
            }
        }
    }
}
