//! Outside-in tracing: host time around each public call into a layer, plus
//! the counts each layer reports, gathered per traced pass.

use std::collections::BTreeMap;
use std::time::Instant;

use evax_sim::Cpu;

use crate::report::{median, Metrics, PER_LAYER};

/// Per-layer nanoseconds and counts of one traced pass, keyed by the
/// catalog's metric names.
#[derive(Debug, Default)]
pub struct Trace(BTreeMap<&'static str, f64>);

impl Trace {
    /// Runs `f`, adding its host nanoseconds to `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.add_ns(layer, t0);
        r
    }

    /// Adds the nanoseconds elapsed since `t0` to `layer`.
    pub fn add_ns(&mut self, layer: &'static str, t0: Instant) {
        self.add(layer, t0.elapsed().as_nanos() as f64);
    }

    /// Adds `n` to a count (or a nanosecond total).
    pub fn add(&mut self, name: &'static str, n: f64) {
        *self.0.entry(name).or_default() += n;
    }

    /// Sets a value outright (ratios, configuration sizes).
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Adds a finished core's simulated-work counts: the scheduler's event
    /// and ready-queue pushes, L1D and L2 misses, and DRAM row activations.
    pub fn core_counts(&mut self, cpu: &Cpu) {
        let sc = cpu.sched_counters();
        let l1d = cpu.dcache().stats();
        let l2 = cpu.l2().stats();
        self.add("sim.events_scheduled", sc.events_scheduled as f64);
        self.add("sim.ready_pushes", sc.ready_pushes as f64);
        self.add(
            "sim.l1d_misses",
            (l1d.read_misses + l1d.write_misses) as f64,
        );
        self.add("sim.l2_misses", (l2.read_misses + l2.write_misses) as f64);
        self.add(
            "sim.dram_activations",
            cpu.dram().stats().activations as f64,
        );
    }
}

/// Aggregates traced passes into per-layer metrics (medians over passes)
/// and derives the ratios that need the pass's wall time:
///
/// * `sim.ns_per_instr` = `sim.step_ns` / `sim.instrs`;
/// * `trace.coverage` = (sum of the workload's leaf layers) / traced wall;
/// * `<self_layer>` = traced wall − leaf layers, when the workload has one;
/// * `trace.overhead` = median traced wall / median untraced wall.
pub fn layer_metrics(
    out: &mut Metrics,
    traced: &[(f64, Trace)],
    untraced_wall_s: f64,
    leaves: &[&'static str],
    self_layer: Option<&'static str>,
) {
    let mut passes: Vec<(f64, BTreeMap<&'static str, f64>)> = Vec::new();
    for (wall_s, tr) in traced {
        let mut m = tr.0.clone();
        let wall_ns = wall_s * 1e9;
        let instrs = tr.get("sim.instrs");
        let ns_per_instr = if instrs > 0.0 {
            tr.get("sim.step_ns") / instrs
        } else {
            0.0
        };
        m.insert("sim.ns_per_instr", ns_per_instr);
        let covered: f64 = leaves.iter().map(|l| tr.get(l)).sum();
        m.insert("trace.coverage", covered / wall_ns);
        if let Some(name) = self_layer {
            m.insert(name, wall_ns - covered);
        }
        passes.push((*wall_s, m));
    }
    let walls: Vec<f64> = passes.iter().map(|(w, _)| *w).collect();
    for &(name, unit) in PER_LAYER {
        if name == "trace.overhead" {
            out.push_one(name, median(&walls) / untraced_wall_s, unit);
        } else if passes.iter().any(|(_, m)| m.contains_key(name)) {
            let values: Vec<f64> = passes
                .iter()
                .map(|(_, m)| m.get(name).copied().unwrap_or(0.0))
                .collect();
            out.push(name, &values, unit);
        }
    }
}
