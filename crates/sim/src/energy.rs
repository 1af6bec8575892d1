//! Per-op/per-structure energy model: weighted sums over events the
//! simulator already counts.
//!
//! MAD-EN (PAPERS.md) shows microarchitectural attacks are detectable from
//! system-wide *energy* signals alone. We get an energy side channel almost
//! for free: every architectural event that costs energy (a commit, a cache
//! access, a DRAM activation) is already counted by `PipelineStats`, the
//! cache/TLB stats, or the DRAM model, so per-structure energy is a fixed
//! linear combination of existing counters with per-event weights in
//! integer picojoules.
//!
//! Design constraints, in order:
//!
//! * **Bitwise-invisible when disabled.** The model stores nothing and
//!   touches no hot path; energy counters are *derived at visit time*
//!   inside [`crate::hpc::for_each_hpc`], and only when
//!   [`SensorConfig::energy`] is set. With the default (disabled) config
//!   the visitor emits exactly the baseline-133 stream it always has —
//!   the same pattern as `evax-obs`'s no-op `MetricsSink`.
//! * **Exactly additive across windows.** Weights and accumulators are
//!   `u64`, so an energy counter is an exact integer linear map of the
//!   base counters: the delta of the energy counter over any sampling
//!   window equals the same weighted sum of the base-counter deltas,
//!   regardless of how `SampleSchedule` splits the run into warmup and
//!   detail bursts. (Values convert to `f64` losslessly below 2^53;
//!   [`EnergyWeights::validate`] bounds weights so realistic runs stay
//!   far below that.)
//! * **Deterministic.** No floating-point accumulation order to worry
//!   about — the counters are pure functions of the simulator state.

use crate::cache::CacheStats;
use crate::cpu::Cpu;
use crate::tlb::TlbStats;

/// Number of `energy.*` counters appended to the HPC vector when the
/// energy sensor is enabled.
pub const ENERGY_DIM: usize = 9;

/// Names of the `energy.*` counters, in the order they are visited.
pub const ENERGY_NAMES: [&str; ENERGY_DIM] = [
    "energy.core",
    "energy.l1i",
    "energy.l1d",
    "energy.l2",
    "energy.tlb",
    "energy.squash",
    "energy.dram",
    "energy.static",
    "energy.total",
];

/// Largest accepted per-event weight (2^20 pJ ≈ 1 µJ per event). Keeps
/// weighted sums exactly representable in `f64` for any realistic run:
/// even 2^32 events at the maximum weight stay below 2^53.
pub const MAX_ENERGY_WEIGHT: u64 = 1 << 20;

/// Per-event energy weights in integer picojoules.
///
/// Defaults are order-of-magnitude figures in the spirit of CACTI/McPAT
/// class models (an L1 access costs ~10 pJ, an L2 access ~50, a DRAM row
/// activation ~900): the *relative* structure is what the detector sees
/// after normalization, not the absolute joules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EnergyWeights {
    /// Committed load (address generation + LQ/dcache port).
    pub commit_load: u64,
    /// Committed store (SQ drain + write port).
    pub commit_store: u64,
    /// Committed branch (predictor update + redirect datapath).
    pub commit_branch: u64,
    /// Committed memory barrier (pipeline serialization).
    pub commit_membar: u64,
    /// Any other committed instruction (ALU class).
    pub commit_other: u64,
    /// L1 (I or D) hit.
    pub l1_hit: u64,
    /// L1 miss (tag probe + MSHR + fill path).
    pub l1_miss: u64,
    /// L2 hit.
    pub l2_hit: u64,
    /// L2 miss.
    pub l2_miss: u64,
    /// Dirty-line writeback, any level.
    pub writeback: u64,
    /// TLB hit (I or D side).
    pub tlb_hit: u64,
    /// TLB miss (CAM miss + page walk issue).
    pub tlb_miss: u64,
    /// Squashed instruction (wasted issue/execute/commit work — the
    /// transient-attack tell).
    pub squash: u64,
    /// DRAM row activation.
    pub dram_activate: u64,
    /// DRAM precharge.
    pub dram_precharge: u64,
    /// DRAM read or write burst.
    pub dram_burst: u64,
    /// DRAM refresh.
    pub dram_refresh: u64,
    /// Static/leakage energy per core cycle.
    pub static_per_cycle: u64,
}

impl Default for EnergyWeights {
    fn default() -> Self {
        EnergyWeights {
            commit_load: 12,
            commit_store: 14,
            commit_branch: 8,
            commit_membar: 20,
            commit_other: 6,
            l1_hit: 10,
            l1_miss: 30,
            l2_hit: 50,
            l2_miss: 110,
            writeback: 60,
            tlb_hit: 2,
            tlb_miss: 80,
            squash: 9,
            dram_activate: 900,
            dram_precharge: 400,
            dram_burst: 150,
            dram_refresh: 250,
            static_per_cycle: 3,
        }
    }
}

impl EnergyWeights {
    fn all(&self) -> [u64; 18] {
        [
            self.commit_load,
            self.commit_store,
            self.commit_branch,
            self.commit_membar,
            self.commit_other,
            self.l1_hit,
            self.l1_miss,
            self.l2_hit,
            self.l2_miss,
            self.writeback,
            self.tlb_hit,
            self.tlb_miss,
            self.squash,
            self.dram_activate,
            self.dram_precharge,
            self.dram_burst,
            self.dram_refresh,
            self.static_per_cycle,
        ]
    }

    /// Validates the weight table.
    ///
    /// # Errors
    /// Returns a description of the violated invariant: a weight above
    /// [`MAX_ENERGY_WEIGHT`] (overflow headroom), or an all-zero table
    /// (the sensor would emit a constant zero signal).
    pub fn validate(&self) -> Result<(), String> {
        let all = self.all();
        if let Some(w) = all.iter().find(|&&w| w > MAX_ENERGY_WEIGHT) {
            return Err(format!(
                "energy weight {w} exceeds MAX_ENERGY_WEIGHT ({MAX_ENERGY_WEIGHT} pJ)"
            ));
        }
        if all.iter().all(|&w| w == 0) {
            return Err("all energy weights are zero; disable the sensor instead".into());
        }
        Ok(())
    }
}

/// Sensing-modality configuration carried by
/// [`CpuConfig`](crate::config::CpuConfig).
///
/// `Default` is bit-compatible with the pre-sensor simulator: the energy
/// model is **off**, and a disabled sensor is bitwise-invisible (golden
/// tests pin this). Build non-default values as a struct literal
/// (`SensorConfig { energy: true, ..Default::default() }`);
/// [`Cpu::new`](crate::Cpu::new) checks them through [`SensorConfig::validate`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SensorConfig {
    /// Enables the per-structure energy model: `energy.*` counters are
    /// appended to the HPC vector ([`ENERGY_DIM`] of them) and the feature
    /// schema grows accordingly.
    pub energy: bool,
    /// Per-event weights (integer picojoules) used when `energy` is set.
    pub weights: EnergyWeights,
}

impl SensorConfig {
    /// Number of extra counters this sensor appends to the baseline HPC
    /// vector (0 when disabled).
    pub fn extra_dim(&self) -> usize {
        if self.energy {
            ENERGY_DIM
        } else {
            0
        }
    }

    /// Validates the configuration (weights are only checked when the
    /// sensor is enabled, so a disabled default never rejects).
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.energy {
            self.weights
                .validate()
                .map_err(|e| format!("energy: {e}"))?;
        }
        Ok(())
    }
}

fn cache_energy(w: &EnergyWeights, s: &CacheStats) -> u64 {
    w.l1_hit * (s.read_hits + s.write_hits)
        + w.l1_miss * (s.read_misses + s.write_misses)
        + w.writeback * s.writebacks
}

fn l2_energy(w: &EnergyWeights, s: &CacheStats) -> u64 {
    w.l2_hit * (s.read_hits + s.write_hits)
        + w.l2_miss * (s.read_misses + s.write_misses)
        + w.writeback * s.writebacks
}

fn tlb_energy(w: &EnergyWeights, s: &TlbStats) -> u64 {
    w.tlb_hit * (s.rd_hits + s.wr_hits) + w.tlb_miss * (s.rd_misses + s.wr_misses)
}

/// Computes the `energy.*` counters (order matches [`ENERGY_NAMES`]) as
/// exact `u64` weighted sums over the simulator's cumulative event counts.
///
/// Pure function of `(cpu state, weights)`: calling it never mutates the
/// simulator, and deltas over a window equal the weighted sums of the
/// base-counter deltas (see module docs).
pub fn energy_counters(cpu: &Cpu, w: &EnergyWeights) -> [u64; ENERGY_DIM] {
    let p = cpu.stats();
    let class_commits = p.commit_loads + p.commit_stores + p.commit_branches + p.commit_membars;
    let other_commits = p.committed_insts.saturating_sub(class_commits);
    let core = w.commit_load * p.commit_loads
        + w.commit_store * p.commit_stores
        + w.commit_branch * p.commit_branches
        + w.commit_membar * p.commit_membars
        + w.commit_other * other_commits;
    let l1i = cache_energy(w, cpu.icache().stats());
    let l1d = cache_energy(w, cpu.dcache().stats());
    let l2 = l2_energy(w, cpu.l2().stats());
    let tlb = tlb_energy(w, cpu.dtlb().stats()) + tlb_energy(w, cpu.itlb().stats());
    let squash = w.squash * (p.commit_squashed_insts + p.iew_exec_squashed_insts);
    let d = cpu.dram().stats();
    let dram = w.dram_activate * d.activations
        + w.dram_precharge * d.precharges
        + w.dram_burst * (d.read_reqs + d.write_reqs)
        + w.dram_refresh * d.refreshes;
    let stat = w.static_per_cycle * p.cycles;
    let total = core + l1i + l1d + l2 + tlb + squash + dram + stat;
    [core, l1i, l1d, l2, tlb, squash, dram, stat, total]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;

    #[test]
    fn default_is_disabled_and_valid() {
        let s = SensorConfig::default();
        assert!(!s.energy);
        assert_eq!(s.extra_dim(), 0);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn enabled_energy_validates_and_widens() {
        let s = SensorConfig {
            energy: true,
            ..Default::default()
        };
        assert!(s.validate().is_ok());
        assert_eq!(s.extra_dim(), ENERGY_DIM);
    }

    #[test]
    fn validate_rejects_oversized_weight() {
        let w = EnergyWeights {
            dram_activate: MAX_ENERGY_WEIGHT + 1,
            ..EnergyWeights::default()
        };
        let err = SensorConfig {
            energy: true,
            weights: w,
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("MAX_ENERGY_WEIGHT"), "{err}");
    }

    #[test]
    fn validate_rejects_all_zero_weights() {
        let w = EnergyWeights {
            commit_load: 0,
            commit_store: 0,
            commit_branch: 0,
            commit_membar: 0,
            commit_other: 0,
            l1_hit: 0,
            l1_miss: 0,
            l2_hit: 0,
            l2_miss: 0,
            writeback: 0,
            tlb_hit: 0,
            tlb_miss: 0,
            squash: 0,
            dram_activate: 0,
            dram_precharge: 0,
            dram_burst: 0,
            dram_refresh: 0,
            static_per_cycle: 0,
        };
        assert!(SensorConfig {
            energy: true,
            weights: w,
        }
        .validate()
        .is_err());
        // Disabled sensor never validates the weights.
        assert!(SensorConfig {
            energy: false,
            weights: w,
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn fresh_cpu_energy_is_zero() {
        let cpu = Cpu::new(CpuConfig::default());
        let e = energy_counters(&cpu, &EnergyWeights::default());
        assert_eq!(e, [0u64; ENERGY_DIM]);
    }

    #[test]
    fn names_match_dim_and_are_prefixed() {
        assert_eq!(ENERGY_NAMES.len(), ENERGY_DIM);
        for n in ENERGY_NAMES {
            assert!(n.starts_with("energy."), "{n}");
        }
    }
}
