//! `collect`: streaming corpus collection (`collect_dataset_stats`) over the
//! whole attack and benign registry at the `experiments` small-scale
//! collection settings.
//!
//! The same simulator as `fleet`, used differently: long single-core runs
//! instead of ~1k interleaved live cores, no scoring, and two passes over
//! every run (fit the statistics, then re-simulate to emit samples).

use evax_attacks::benign::Scale;
use evax_attacks::{build_attack, build_benign, AttackClass, BenignKind, KernelParams};
use evax_core::collect::{collect_dataset_stats, collect_dataset_stats_with, CollectConfig};
use evax_core::dataset::BENIGN_CLASS;
use evax_core::featurize::{DatasetSink, RawWindow, StreamStats, WindowSink};
use evax_core::par::Parallelism;
use evax_core::prelude::{Dataset, MetricsSink, Registry};
use evax_sim::{Cpu, MitigationMode, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Trace;
use crate::{Fnv, PassOutput, Workload, THREADS};

/// The pipeline's default collection (`EvaxConfig::default().collect`):
/// 21 attack classes × 4 runs and 10 benign kinds × 8 runs of 12,000
/// instructions, sampled every 100.
fn collect_config() -> CollectConfig {
    CollectConfig {
        parallelism: Parallelism::Fixed(THREADS),
        ..Default::default()
    }
}

#[derive(Default)]
pub struct CollectWorkload {
    seed: u64,
    cfg: Option<CollectConfig>,
    /// The run's programs and labels, as the collector builds them.
    programs: Vec<(Program, usize)>,
    /// `(simulated instructions, cycles, windows)` of one whole collection,
    /// counted once through the library's metrics sink.
    census: Option<(u64, u64, u64)>,
}

enum Spec {
    Attack { class: AttackClass, run: usize },
    Benign { kind: BenignKind },
}

/// The collection's work list, with per-run child seeds drawn from the
/// master seed in canonical run order, exactly as the collector draws them.
fn run_specs(cfg: &CollectConfig, seed: u64) -> Vec<(Spec, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut runs = Vec::new();
    for class in evax_attacks::ATTACK_CLASSES {
        for run in 0..cfg.runs_per_attack {
            runs.push((Spec::Attack { class, run }, rng.gen()));
        }
    }
    for kind in evax_attacks::BENIGN_KINDS {
        for _ in 0..cfg.runs_per_benign {
            runs.push((Spec::Benign { kind }, rng.gen()));
        }
    }
    runs
}

/// One run's program and label, built as the collector builds it.
fn build_run(spec: &Spec, child_seed: u64, cfg: &CollectConfig) -> (Program, usize) {
    let mut rng = StdRng::seed_from_u64(child_seed);
    match spec {
        Spec::Attack { class, run } => {
            let params = KernelParams {
                seed: rng.gen(),
                iterations: 150 + (*run as u32 % 4) * 75,
                ..Default::default()
            };
            (build_attack(*class, &params, &mut rng), class.label())
        }
        Spec::Benign { kind } => (
            build_benign(*kind, Scale(cfg.benign_scale), &mut rng),
            BENIGN_CLASS,
        ),
    }
}

/// Folds every sample (label and feature bits) into `h`.
pub fn samples_digest(h: &mut Fnv, ds: &Dataset) {
    for s in &ds.samples {
        h.word(s.class as u64);
        h.word(s.malicious as u64);
        h.f32s(&s.features);
    }
}

/// Digest over every sample and the fitted streaming statistics.
fn dataset_digest(ds: &Dataset, stats: &StreamStats) -> u64 {
    let mut h = Fnv::default();
    samples_digest(&mut h, ds);
    h.word(stats.count());
    h.word(stats.rejected());
    h.f64s(stats.means());
    for i in 0..stats.dim() {
        h.word(stats.variance(i).to_bits());
    }
    h.f64s(stats.normalizer().maxima());
    h.finish()
}

impl Workload for CollectWorkload {
    fn setup(&mut self, seed: u64) {
        let cfg = collect_config();
        self.programs = run_specs(&cfg, seed)
            .iter()
            .map(|(spec, child)| build_run(spec, *child, &cfg))
            .collect();
        self.seed = seed;
        self.cfg = Some(cfg);
    }

    fn input_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for (program, label) in &self.programs {
            h.word(*label as u64);
            h.bytes(program.disassemble().as_bytes());
        }
        h.finish()
    }

    fn pass(&mut self) -> PassOutput {
        let cfg = self.cfg.as_ref().expect("set-up ran");
        let (ds, stats) = match self.census {
            Some(_) => collect_dataset_stats(cfg, self.seed),
            None => {
                // The untimed reference pass counts the simulated work
                // through the library's own (bitwise-invisible) metrics.
                let registry = Registry::shared();
                let out =
                    collect_dataset_stats_with(cfg, self.seed, &MetricsSink::recording(&registry));
                let get = |name: &str| registry.get(name).unwrap_or(0);
                self.census = Some((
                    get("sim.committed_instrs"),
                    get("sim.cycles"),
                    get("featurize.windows"),
                ));
                out
            }
        };
        let (instrs, cycles, windows) = self.census.expect("census taken");
        let checks = vec![
            (
                "collect emits one sample per fitted window",
                ds.len() as u64 == stats.count() + stats.rejected() && !ds.is_empty(),
            ),
            (
                "collect simulates every window twice (fit, emit)",
                windows == 2 * ds.len() as u64,
            ),
            (
                "collected features are normalized into [0, 1]",
                ds.samples
                    .iter()
                    .all(|s| s.features.iter().all(|v| (0.0..=1.0).contains(v))),
            ),
        ];
        PassOutput {
            digest: dataset_digest(&ds, &stats),
            units: ds.len() as u64,
            sim_instrs: instrs,
            sim_cycles: cycles,
            attempted: windows,
            failed: stats.rejected(),
            checks,
            figures: Vec::new(),
        }
    }

    fn traced_pass(&mut self, trace: &mut Trace) -> PassOutput {
        let cfg = self.cfg.as_ref().expect("set-up ran");
        let specs = run_specs(cfg, self.seed);
        let dim = evax_sim::dim_for(&cfg.cpu);

        let fit_t0 = std::time::Instant::now();
        let mut stats = StreamStats::new(dim);
        for (spec, child) in &specs {
            let (program, _) = trace.time("attacks.build_ns", || build_run(spec, *child, cfg));
            let mut run_stats = StreamStats::new(dim);
            simulate(&program, cfg, &mut run_stats, "featurize.stats_ns", trace);
            trace.time("featurize.stats_ns", || stats.merge(&run_stats));
        }
        let norm = trace.time("featurize.stats_ns", || stats.normalizer());
        trace.add_ns("collect.fit_ns", fit_t0);

        let emit_t0 = std::time::Instant::now();
        let mut ds = Dataset::new();
        for (spec, child) in &specs {
            let (program, label) = trace.time("attacks.build_ns", || build_run(spec, *child, cfg));
            let mut sink = DatasetSink::new(&norm, label);
            let rows = simulate(&program, cfg, &mut sink, "featurize.ns", trace);
            trace.add("featurize.rows", rows as f64);
            ds.extend(sink.into_dataset());
        }
        trace.add_ns("collect.emit_ns", emit_t0);

        let simulated = trace.get("sim.windows");
        trace.set("collect.windows_simulated", simulated);
        trace.set("collect.samples", ds.len() as f64);
        trace.set("collect.useful_ratio", ds.len() as f64 / simulated);
        PassOutput {
            digest: dataset_digest(&ds, &stats),
            units: ds.len() as u64,
            sim_instrs: trace.get("sim.instrs") as u64,
            sim_cycles: trace.get("sim.cycles") as u64,
            attempted: simulated as u64,
            failed: stats.rejected(),
            ..PassOutput::default()
        }
    }

    fn leaf_layers(&self) -> &'static [&'static str] {
        &[
            "attacks.build_ns",
            "sim.step_ns",
            "featurize.stats_ns",
            "featurize.ns",
        ]
    }
}

/// `ProgramSource::stream`'s body, timed: one run on a fresh core with the
/// kernel secret planted, every window pushed into `sink`. The sink's time
/// goes to `sink_layer`, the rest of the call to `sim.step_ns`. Returns the
/// windows produced.
fn simulate(
    program: &Program,
    cfg: &CollectConfig,
    sink: &mut dyn WindowSink,
    sink_layer: &'static str,
    trace: &mut Trace,
) -> u64 {
    let t0 = std::time::Instant::now();
    let mut sink_ns = 0u128;
    let mut windows = 0u64;
    let mut cpu = Cpu::new(cfg.cpu.clone());
    cpu.memory_mut()
        .write_u64(evax_attacks::mds::KERNEL_SECRET_ADDR, 5);
    let result = cpu.run_sampled_with_schedule(
        program,
        cfg.max_instrs,
        cfg.interval,
        cfg.schedule,
        |s| -> Option<MitigationMode> {
            let t = std::time::Instant::now();
            let mode = sink.window(&RawWindow {
                values: &s.values,
                instructions: s.instructions,
                cycle: s.cycle,
            });
            sink_ns += t.elapsed().as_nanos();
            windows += 1;
            mode
        },
    );
    trace.add("sim.instrs", result.committed_instructions as f64);
    trace.add("sim.cycles", result.cycles as f64);
    trace.add("sim.windows", windows as f64);
    trace.core_counts(&cpu);
    // Dropping the core ends `ProgramSource::stream` too.
    drop(cpu);
    let total_ns = t0.elapsed().as_nanos();
    trace.add("sim.step_ns", (total_ns - sink_ns) as f64);
    trace.add(sink_layer, sink_ns as f64);
    windows
}
