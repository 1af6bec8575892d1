//! Simulator scheduling throughput: the event-driven core vs the reference
//! scan core on the full registry mix (every attack class + every benign
//! kind), reporting committed instructions per second and the speedup.
//!
//! Both schedulers are bit-identical by contract (see the golden-equivalence
//! tests); this experiment quantifies how much the event-driven hot path
//! buys. It also backs the `sim_instrs_per_sec` field of the experiment
//! runner's `--json` summary and the checked-in `BENCH_sim.json` baseline.

use evax_attacks::benign::Scale;
use evax_attacks::{build_attack, build_benign, KernelParams, ATTACK_CLASSES, BENIGN_KINDS};
use evax_sim::isa::Program;
use evax_sim::{CpuConfig, SchedulerKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{timed, ExperimentScale, Harness};

/// Measured throughput of both scheduling cores on the registry mix.
#[derive(Debug, Clone, Copy)]
pub struct SimThroughput {
    /// Committed instructions per run of the mix (identical for both cores).
    pub committed: u64,
    /// Wall-clock seconds for the event-driven core.
    pub event_secs: f64,
    /// Wall-clock seconds for the reference scan core.
    pub scan_secs: f64,
}

impl SimThroughput {
    /// Event-driven committed instructions per second.
    pub fn event_ips(&self) -> f64 {
        self.committed as f64 / self.event_secs.max(1e-9)
    }

    /// Scan-reference committed instructions per second.
    pub fn scan_ips(&self) -> f64 {
        self.committed as f64 / self.scan_secs.max(1e-9)
    }

    /// Event-driven speedup over the scan reference.
    pub fn speedup(&self) -> f64 {
        self.scan_secs / self.event_secs.max(1e-9)
    }
}

/// Builds the registry mix: one program per attack class and benign kind,
/// seeded deterministically.
fn registry_mix(seed: u64, scale: ExperimentScale) -> Vec<Program> {
    let (iterations, benign_scale) = match scale {
        ExperimentScale::Small => (24, 3_000),
        ExperimentScale::Full => (64, 20_000),
    };
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

/// Runs the whole mix on fresh cores under one scheduler; returns the total
/// committed instructions and wall-clock seconds.
fn run_mix(mix: &[Program], scheduler: SchedulerKind, max_instrs: u64) -> (u64, f64) {
    let cfg = CpuConfig {
        scheduler,
        ..Default::default()
    };
    timed(|| {
        let mut committed = 0u64;
        for program in mix {
            let mut cpu = evax_attacks::tenant_core(&cfg);
            committed += cpu.run(program, max_instrs).committed_instructions;
        }
        committed
    })
}

/// Measures both schedulers on the registry mix. One warm-up pass per core
/// stabilizes caches/allocator before the timed pass.
pub fn measure(seed: u64, scale: ExperimentScale) -> SimThroughput {
    let mix = registry_mix(seed, scale);
    let max_instrs = scale.perf_instrs();
    run_mix(&mix, SchedulerKind::EventDriven, max_instrs);
    let (event_committed, event_secs) = run_mix(&mix, SchedulerKind::EventDriven, max_instrs);
    run_mix(&mix, SchedulerKind::Scan, max_instrs);
    let (scan_committed, scan_secs) = run_mix(&mix, SchedulerKind::Scan, max_instrs);
    assert_eq!(
        event_committed, scan_committed,
        "schedulers must commit identical instruction counts"
    );
    SimThroughput {
        committed: event_committed,
        event_secs,
        scan_secs,
    }
}

/// The `sim-throughput` experiment report.
pub fn sim_throughput(harness: &Harness) -> String {
    let t = measure(harness.seed, harness.scale);
    let mut out = String::new();
    out.push_str("sim-throughput: event-driven vs scan scheduling on the registry mix\n");
    out.push_str(&format!(
        "  mix: {} attack + {} benign programs, {} committed instrs/core\n",
        ATTACK_CLASSES.len(),
        BENIGN_KINDS.len(),
        t.committed
    ));
    out.push_str(&format!(
        "  event-driven : {:>12.0} instrs/sec ({:.3}s)\n",
        t.event_ips(),
        t.event_secs
    ));
    out.push_str(&format!(
        "  scan (ref)   : {:>12.0} instrs/sec ({:.3}s)\n",
        t.scan_ips(),
        t.scan_secs
    ));
    out.push_str(&format!(
        "  speedup      : {:.2}x (results bit-identical; see golden-equivalence tests)\n",
        t.speedup()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_covers_whole_registry() {
        let mix = registry_mix(7, ExperimentScale::Small);
        assert_eq!(mix.len(), ATTACK_CLASSES.len() + BENIGN_KINDS.len());
    }

    #[test]
    fn both_schedulers_commit_identically_on_a_slice() {
        let mix = registry_mix(11, ExperimentScale::Small);
        let (a, _) = run_mix(&mix[..3], SchedulerKind::EventDriven, 10_000);
        let (b, _) = run_mix(&mix[..3], SchedulerKind::Scan, 10_000);
        assert_eq!(a, b);
        assert!(a > 0);
    }
}
