//! Flattening of every simulator counter into the named HPC feature vector
//! the detectors consume.
//!
//! The paper's detector monitors 133 baseline performance counters plus 12
//! security-centric counters engineered by EVAX (145 total, §VI-A). This
//! module exports the 133 baseline features: raw pipeline/cache/TLB/DRAM
//! event counts plus a handful of derived rates (the paper samples "total
//! number, cycles, rate, average" per event). The 12 engineered features are
//! produced in `evax-core::feature_engineering` by mining the trained AM-GAN
//! Generator.
//!
//! [`for_each_hpc`] is the single source of truth for the counter order;
//! everything else (names, allocation-free [`hpc_vector_into`], the
//! `Vec`-returning conveniences) derives from it, so the name table and the
//! value fill can never drift apart. When the configuration enables the
//! energy sensor (`crate::energy`), the visitor appends the `energy.*`
//! counters after the baseline 133; when it enables the device subsystem
//! (`crate::device`), the `irq.*`/`dma.*` counters follow the energy tail.
//! A disabled sensor or device subsystem is bitwise-invisible (golden tests
//! pin this). The counter list a given configuration exports is described
//! by [`crate::schema::FeatureSchema`]; its width is
//! `FeatureSchema::for_config(cfg).dim()` (or [`dim_for`]).

use std::sync::OnceLock;

use crate::cache::CacheStats;
use crate::config::CpuConfig;
use crate::cpu::Cpu;
use crate::tlb::TlbStats;

/// Number of baseline HPC features (pre-engineering, pre-sensor).
pub const HPC_BASE_DIM: usize = 133;

/// Width of the counter vector a CPU built from `cfg` exports: the 133
/// baseline HPCs, plus the `energy.*` tail when the energy sensor is
/// enabled, plus the `irq.*`/`dma.*` tail when the device subsystem is
/// enabled. Equals `FeatureSchema::for_config(cfg).dim()` without building
/// the schema (this is the sampling hot path's sizing primitive).
pub fn dim_for(cfg: &CpuConfig) -> usize {
    HPC_BASE_DIM + cfg.sensor.extra_dim() + cfg.devices.extra_dim()
}

/// Visits every exported counter as a `(name, value)` pair, in canonical
/// order: the 133 baseline HPCs, then (only when the configuration enables
/// the energy sensor) the `energy.*` counters, then (only when the device
/// subsystem is enabled) the `irq.*`/`dma.*` counters.
///
/// This is the sampling hot path's primitive: it reads counters straight off
/// the simulator with no intermediate allocation.
pub fn for_each_hpc(cpu: &Cpu, mut f: impl FnMut(&'static str, f64)) {
    for_each_base_hpc(cpu, &mut f);
    let sensor = &cpu.config().sensor;
    if sensor.energy {
        let e = crate::energy::energy_counters(cpu, &sensor.weights);
        for (name, val) in crate::energy::ENERGY_NAMES.iter().zip(e) {
            f(name, val as f64);
        }
    }
    if let Some(s) = cpu.device_stats() {
        let d = crate::device::device_counters(s);
        for (name, val) in crate::device::DEVICE_NAMES.iter().zip(d) {
            f(name, val as f64);
        }
    }
}

/// The baseline-133 portion of [`for_each_hpc`].
fn for_each_base_hpc(cpu: &Cpu, f: &mut impl FnMut(&'static str, f64)) {
    let p = cpu.stats();

    // ---- global ----
    f("cycles", p.cycles as f64);
    f("commit.CommittedInsts", p.committed_insts as f64);

    // ---- fetch ----
    f("fetch.Insts", p.fetch_insts as f64);
    f("fetch.Branches", p.fetch_branches as f64);
    f("fetch.PredictedTaken", p.fetch_predicted_taken as f64);
    f("fetch.SquashCycles", p.fetch_squash_cycles as f64);
    f(
        "fetch.IcacheStallCycles",
        p.fetch_icache_stall_cycles as f64,
    );
    f("fetch.BlockedCycles", p.fetch_blocked_cycles as f64);
    f("fetch.IdleCycles", p.fetch_idle_cycles as f64);
    f(
        "fetch.PendingQuiesceStallCycles",
        p.fetch_pending_quiesce_stall_cycles as f64,
    );

    // ---- rename ----
    f("rename.RenamedInsts", p.rename_renamed_insts as f64);
    f("rename.ROBFullEvents", p.rename_rob_full_events as f64);
    f("rename.IQFullEvents", p.rename_iq_full_events as f64);
    f("rename.LQFullEvents", p.rename_lq_full_events as f64);
    f("rename.SQFullEvents", p.rename_sq_full_events as f64);
    f(
        "rename.FullRegistersEvents",
        p.rename_full_registers_events as f64,
    );
    f("rename.serializingInsts", p.rename_serializing_insts as f64);
    f("rename.Undone", p.rename_undone_maps as f64);
    f("rename.CommittedMaps", p.rename_committed_maps as f64);

    // ---- issue queue ----
    f("iq.IssuedInsts", p.iq_issued_insts as f64);
    f("iq.SquashedInstsIssued", p.iq_squashed_insts_issued as f64);
    f("iq.SquashedNonSpecLD", p.iq_squashed_non_spec_ld as f64);
    f("iq.OperandStallCycles", p.iq_operand_stall_cycles as f64);
    f("iq.FUStallCycles", p.iq_fu_stall_cycles as f64);

    // ---- iew ----
    f("iew.ExecutedInsts", p.iew_executed_insts as f64);
    f("iew.ExecSquashedInsts", p.iew_exec_squashed_insts as f64);
    f("iew.ExecLoadInsts", p.iew_exec_load_insts as f64);
    f("iew.ExecStoreInsts", p.iew_exec_store_insts as f64);
    f("iew.MemOrderViolation", p.iew_mem_order_violations as f64);
    f("iew.BranchMispredicts", p.iew_branch_mispredicts as f64);
    f(
        "iew.PredictedTakenIncorrect",
        p.iew_predicted_taken_incorrect as f64,
    );
    f(
        "iew.PredictedNotTakenIncorrect",
        p.iew_predicted_not_taken_incorrect as f64,
    );

    // ---- lsq ----
    f("lsq.forwLoads", p.lsq_forw_loads as f64);
    f("lsq.squashedLoads", p.lsq_squashed_loads as f64);
    f("lsq.squashedStores", p.lsq_squashed_stores as f64);
    f("lsq.ignoredResponses", p.lsq_ignored_responses as f64);
    f("lsq.rescheduledLoads", p.lsq_rescheduled_loads as f64);
    f("lsq.CacheBlockedLoads", p.lsq_cache_blocked_loads as f64);
    f("lsq.falseForwards", p.lsq_false_forwards as f64);

    // ---- commit ----
    f("commit.SquashedInsts", p.commit_squashed_insts as f64);
    f("commit.Branches", p.commit_branches as f64);
    f("commit.Loads", p.commit_loads as f64);
    f("commit.Stores", p.commit_stores as f64);
    f("commit.Membars", p.commit_membars as f64);
    f(
        "commit.ROBSquashingCycles",
        p.commit_rob_squashing_cycles as f64,
    );
    f(
        "commit.ExposeStallCycles",
        p.commit_expose_stall_cycles as f64,
    );

    // ---- branch predictor ----
    f("bp.condPredicted", p.bp_cond_predicted as f64);
    f("bp.condIncorrect", p.bp_cond_incorrect as f64);
    f("bp.BTBLookups", p.bp_btb_lookups as f64);
    f("bp.BTBHits", p.bp_btb_hits as f64);
    f("bp.indirectMispredicted", p.bp_indirect_mispredicted as f64);
    f("bp.usedRAS", p.bp_used_ras as f64);
    f("bp.RASIncorrect", p.bp_ras_incorrect as f64);

    // ---- faults / transient ----
    f("faults.raised", p.faults_raised as f64);
    f(
        "faults.deferredWithData",
        p.faults_deferred_with_data as f64,
    );
    f("faults.squashed", p.faults_squashed as f64);
    f("spec.InstsAdded", p.spec_insts_added as f64);
    f("spec.LoadsExecuted", p.spec_loads_executed as f64);
    f("spec.WindowCycles", p.spec_window_cycles as f64);

    // ---- special units ----
    f("rdrand.ops", p.rdrand_ops as f64);
    f("rdrand.contentionCycles", p.rdrand_contention_cycles as f64);
    f("syscalls", p.syscalls as f64);

    // ---- caches ----
    visit_cache(f, "icache", cpu.icache().stats());
    visit_cache(f, "dcache", cpu.dcache().stats());
    visit_cache(f, "l2", cpu.l2().stats());

    // ---- TLBs ----
    visit_tlb(f, "dtlb", cpu.dtlb().stats());
    visit_tlb(f, "itlb", cpu.itlb().stats());

    // ---- DRAM ----
    let d = cpu.dram().stats();
    f("dram.activations", d.activations as f64);
    f("dram.rowBufferHits", d.row_buffer_hits as f64);
    f("dram.rowBufferConflicts", d.row_buffer_conflicts as f64);
    f("dram.rowBufferEmpty", d.row_buffer_empty as f64);
    f("dram.precharges", d.precharges as f64);
    f("dram.refreshes", d.refreshes as f64);
    f("dram.readReqs", d.read_reqs as f64);
    f("dram.writeReqs", d.write_reqs as f64);
    f("dram.bytesRead", d.bytes_read as f64);
    f("dram.bytesWritten", d.bytes_written as f64);
    f("dram.bytesReadWrQ", d.bytes_read_wr_q as f64);
    f("dram.writeBursts", d.write_bursts as f64);
    f("dram.selfRefreshEnergy", d.energy as f64);
    f("dram.bitFlips", d.bit_flips as f64);
    f("dram.rowsNearThreshold", d.rows_near_threshold as f64);
    f("dram.bytesPerActivate", d.bytes_per_activate());
    f("dram.rowHitRate", d.row_hit_rate());

    // ---- derived rates (paper: "rate, average, distribution") ----
    let cyc = (p.cycles as f64).max(1.0);
    let fetched = (p.fetch_insts as f64).max(1.0);
    let cond = (p.bp_cond_predicted as f64).max(1.0);
    f("derived.ipc", p.committed_insts as f64 / cyc);
    f(
        "derived.wrongPathFraction",
        p.commit_squashed_insts as f64 / fetched,
    );
    f(
        "derived.condMispredictRate",
        p.bp_cond_incorrect as f64 / cond,
    );
    f(
        "derived.dcacheMissRate",
        cpu.dcache().stats().read_misses as f64
            / ((cpu.dcache().stats().read_hits + cpu.dcache().stats().read_misses) as f64).max(1.0),
    );
    f(
        "derived.specLoadFraction",
        p.spec_loads_executed as f64 / (p.iew_exec_load_insts as f64).max(1.0),
    );
    f(
        "derived.forwLoadRate",
        p.lsq_forw_loads as f64 / (p.iew_exec_load_insts as f64).max(1.0),
    );
    f(
        "derived.execSquashRate",
        p.iew_exec_squashed_insts as f64 / (p.iew_executed_insts as f64).max(1.0),
    );
    f(
        "derived.l2MissRate",
        cpu.l2().stats().read_misses as f64
            / ((cpu.l2().stats().read_hits + cpu.l2().stats().read_misses) as f64).max(1.0),
    );
}

fn visit_cache(f: &mut impl FnMut(&'static str, f64), level: &'static str, s: &CacheStats) {
    // One static name table per level keeps names 'static without leaking.
    let names: &[&'static str; 12] = match level {
        "icache" => &[
            "icache.ReadReq_hits",
            "icache.ReadReq_misses",
            "icache.WriteReq_hits",
            "icache.WriteReq_misses",
            "icache.cleanEvicts",
            "icache.writebacks",
            "icache.flushes",
            "icache.mshr_misses",
            "icache.ReadReq_mshr_miss_latency",
            "icache.mshr_full_events",
            "icache.prefetch_fills",
            "icache.prefetch_hits",
        ],
        "dcache" => &[
            "dcache.ReadReq_hits",
            "dcache.ReadReq_misses",
            "dcache.WriteReq_hits",
            "dcache.WriteReq_misses",
            "dcache.cleanEvicts",
            "dcache.writebacks",
            "dcache.flushes",
            "dcache.mshr_misses",
            "dcache.ReadReq_mshr_miss_latency",
            "dcache.mshr_full_events",
            "dcache.prefetch_fills",
            "dcache.prefetch_hits",
        ],
        _ => &[
            "l2.ReadReq_hits",
            "l2.ReadReq_misses",
            "l2.WriteReq_hits",
            "l2.WriteReq_misses",
            "l2.cleanEvicts",
            "l2.writebacks",
            "l2.flushes",
            "l2.mshr_misses",
            "l2.ReadReq_mshr_miss_latency",
            "l2.mshr_full_events",
            "l2.prefetch_fills",
            "l2.prefetch_hits",
        ],
    };
    let vals = [
        s.read_hits as f64,
        s.read_misses as f64,
        s.write_hits as f64,
        s.write_misses as f64,
        s.clean_evicts as f64,
        s.writebacks as f64,
        s.flushes as f64,
        s.mshr_misses as f64,
        s.mshr_miss_latency as f64,
        s.mshr_full_events as f64,
        s.prefetch_fills as f64,
        s.prefetch_hits as f64,
    ];
    for (n, val) in names.iter().zip(vals) {
        f(n, val);
    }
}

fn visit_tlb(f: &mut impl FnMut(&'static str, f64), which: &'static str, s: &TlbStats) {
    let names: &[&'static str; 5] = match which {
        "dtlb" => &[
            "dtlb.rdHits",
            "dtlb.rdMisses",
            "dtlb.wrHits",
            "dtlb.wrMisses",
            "dtlb.evictions",
        ],
        _ => &[
            "itlb.rdHits",
            "itlb.rdMisses",
            "itlb.wrHits",
            "itlb.wrMisses",
            "itlb.evictions",
        ],
    };
    let vals = [
        s.rd_hits as f64,
        s.rd_misses as f64,
        s.wr_hits as f64,
        s.wr_misses as f64,
        s.evictions as f64,
    ];
    for (n, val) in names.iter().zip(vals) {
        f(n, val);
    }
}

/// Fills `out` with the counter vector for this CPU's configuration,
/// allocation-free.
///
/// # Panics
/// Panics if `out.len() != dim_for(cpu.config())`.
pub fn hpc_vector_into(cpu: &Cpu, out: &mut [f64]) {
    let dim = dim_for(cpu.config());
    assert_eq!(out.len(), dim, "HPC output slice has wrong length");
    let mut i = 0usize;
    for_each_hpc(cpu, |_, val| {
        out[i] = val;
        i += 1;
    });
    debug_assert_eq!(i, dim, "HPC vector drifted from the config's schema");
}

/// `(name, value)` pairs for every exported counter, in canonical order.
/// Convenience wrapper over [`for_each_hpc`] (allocates; tests/reporting).
pub fn hpc_pairs(cpu: &Cpu) -> Vec<(&'static str, f64)> {
    let dim = dim_for(cpu.config());
    let mut v: Vec<(&'static str, f64)> = Vec::with_capacity(dim);
    for_each_hpc(cpu, |name, val| v.push((name, val)));
    debug_assert_eq!(v.len(), dim, "HPC vector drifted from the config's schema");
    v
}

/// The baseline-133 counter names, in canonical order. Computed once;
/// backs [`crate::schema::FeatureSchema::baseline`].
pub(crate) fn base_hpc_names() -> &'static [&'static str] {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    NAMES.get_or_init(|| {
        let cpu = Cpu::new(crate::config::CpuConfig::default());
        let mut names = Vec::with_capacity(HPC_BASE_DIM);
        for_each_hpc(&cpu, |name, _| names.push(name));
        names
    })
}

/// The counter vector for this CPU's configuration (order matches
/// `FeatureSchema::for_config(cpu.config())`).
/// Convenience wrapper; the sampling hot path uses [`hpc_vector_into`].
pub fn hpc_vector(cpu: &Cpu) -> Vec<f64> {
    let mut v = vec![0.0f64; dim_for(cpu.config())];
    hpc_vector_into(cpu, &mut v);
    v
}

/// Index of a named HPC in the **baseline** vector, if present. For
/// configuration-dependent schemas use
/// [`FeatureSchema::index`](crate::schema::FeatureSchema::index).
pub fn hpc_index(name: &str) -> Option<usize> {
    base_hpc_names().iter().position(|&n| n == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;
    use crate::energy::{SensorConfig, ENERGY_DIM};
    use crate::schema::FeatureSchema;

    fn energy_cfg() -> CpuConfig {
        CpuConfig {
            sensor: SensorConfig::builder().energy(true).build().unwrap(),
            ..CpuConfig::default()
        }
    }

    #[test]
    fn vector_matches_base_dim() {
        let cpu = Cpu::new(CpuConfig::default());
        assert_eq!(hpc_vector(&cpu).len(), HPC_BASE_DIM);
        assert_eq!(FeatureSchema::baseline().dim(), HPC_BASE_DIM);
        assert_eq!(dim_for(&CpuConfig::default()), HPC_BASE_DIM);
    }

    #[test]
    fn energy_sensor_appends_tail() {
        let cfg = energy_cfg();
        assert_eq!(dim_for(&cfg), HPC_BASE_DIM + ENERGY_DIM);
        let cpu = Cpu::new(cfg);
        let pairs = hpc_pairs(&cpu);
        assert_eq!(pairs.len(), HPC_BASE_DIM + ENERGY_DIM);
        assert_eq!(pairs[HPC_BASE_DIM].0, "energy.core");
        assert_eq!(pairs.last().unwrap().0, "energy.total");
        assert_eq!(hpc_vector(&cpu).len(), HPC_BASE_DIM + ENERGY_DIM);
    }

    #[test]
    fn device_subsystem_appends_tail_after_energy() {
        use crate::device::{DeviceConfig, DEVICE_DIM};
        let cfg = CpuConfig {
            devices: DeviceConfig::builder()
                .enabled(true)
                .timer_period(500)
                .build()
                .unwrap(),
            ..energy_cfg()
        };
        assert_eq!(dim_for(&cfg), HPC_BASE_DIM + ENERGY_DIM + DEVICE_DIM);
        let cpu = Cpu::new(cfg);
        let pairs = hpc_pairs(&cpu);
        assert_eq!(pairs[HPC_BASE_DIM].0, "energy.core");
        assert_eq!(pairs[HPC_BASE_DIM + ENERGY_DIM].0, "irq.timerFires");
        assert_eq!(pairs.last().unwrap().0, "dma.portStealCycles");
    }

    #[test]
    fn disabled_sensor_emits_exactly_baseline() {
        let cpu = Cpu::new(CpuConfig::default());
        let pairs = hpc_pairs(&cpu);
        assert_eq!(pairs.len(), HPC_BASE_DIM);
        assert!(pairs
            .iter()
            .all(|(n, _)| !n.starts_with("energy.") && !n.starts_with("irq.")));
    }

    #[test]
    fn names_are_unique() {
        let cfg = CpuConfig {
            devices: crate::device::DeviceConfig::builder()
                .enabled(true)
                .timer_period(500)
                .build()
                .unwrap(),
            ..energy_cfg()
        };
        let schema = FeatureSchema::for_config(&cfg);
        let names = schema.names_vec();
        let mut sorted: Vec<_> = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate HPC names");
    }

    #[test]
    fn pairs_vector_and_into_agree() {
        let cpu = Cpu::new(CpuConfig::default());
        let pairs = hpc_pairs(&cpu);
        let vec = hpc_vector(&cpu);
        let mut filled = vec![f64::NAN; HPC_BASE_DIM];
        hpc_vector_into(&cpu, &mut filled);
        assert_eq!(pairs.len(), vec.len());
        for ((i, (name, val)), (v, fv)) in
            pairs.iter().enumerate().zip(vec.iter().zip(filled.iter()))
        {
            assert_eq!(base_hpc_names()[i], *name);
            assert_eq!(val.to_bits(), v.to_bits());
            assert_eq!(val.to_bits(), fv.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn into_rejects_wrong_length() {
        let cpu = Cpu::new(CpuConfig::default());
        let mut short = vec![0.0f64; HPC_BASE_DIM - 1];
        hpc_vector_into(&cpu, &mut short);
    }

    #[test]
    fn table1_source_counters_exist() {
        // The counters EVAX's Table I engineered features are built from.
        for name in [
            "lsq.squashedStores",
            "lsq.forwLoads",
            "lsq.ignoredResponses",
            "rename.Undone",
            "rename.CommittedMaps",
            "iew.MemOrderViolation",
            "dtlb.rdMisses",
            "iq.SquashedNonSpecLD",
            "dcache.ReadReq_mshr_miss_latency",
            "rename.serializingInsts",
            "iew.ExecSquashedInsts",
            "dram.bytesReadWrQ",
            "dram.selfRefreshEnergy",
            "dram.bytesPerActivate",
            "fetch.PendingQuiesceStallCycles",
        ] {
            assert!(hpc_index(name).is_some(), "missing HPC {name}");
        }
    }

    #[test]
    fn fresh_cpu_vector_is_zeroish() {
        let cpu = Cpu::new(CpuConfig::default());
        let v = hpc_vector(&cpu);
        assert!(v.iter().all(|x| *x == 0.0));
    }
}
