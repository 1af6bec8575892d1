//! CPU configuration — defaults follow the paper's Table II.

use evax_dram::DramConfig;

/// Mitigation applied by the pipeline (paper §VII, *Infrastructure for
/// Performance & Security Analysis*).
///
/// The *Spectre* threat model protects speculative loads shadowed by an
/// unresolved control-flow instruction; the *Futuristic* model protects every
/// speculative load (covering LVI-class attacks) [InvisiSpec, MICRO'18].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum MitigationMode {
    /// Performance mode: no mitigation.
    #[default]
    None,
    /// A fence after every branch: loads stall while any older branch is
    /// unresolved (Spectre threat model; ~74% overhead always-on).
    FenceSpectre,
    /// A fence before every load: loads issue only from the ROB head
    /// (Futuristic threat model; ~200% overhead always-on, the LVI-class
    /// mitigation).
    FenceFuturistic,
    /// InvisiSpec under the Spectre model: branch-shadowed loads do not
    /// modify the cache until their visibility point, then pay an exposure
    /// re-access.
    InvisiSpecSpectre,
    /// InvisiSpec under the Futuristic model: every load is invisible until
    /// it reaches the ROB head.
    InvisiSpecFuturistic,
}

impl MitigationMode {
    /// `true` if the mode leaves speculative loads invisible (InvisiSpec).
    pub fn is_invisispec(self) -> bool {
        matches!(
            self,
            MitigationMode::InvisiSpecSpectre | MitigationMode::InvisiSpecFuturistic
        )
    }

    /// `true` if the mode fences loads.
    pub fn is_fence(self) -> bool {
        matches!(
            self,
            MitigationMode::FenceSpectre | MitigationMode::FenceFuturistic
        )
    }

    /// `true` for Futuristic-threat-model variants (all speculative loads).
    pub fn is_futuristic(self) -> bool {
        matches!(
            self,
            MitigationMode::FenceFuturistic | MitigationMode::InvisiSpecFuturistic
        )
    }
}

/// Which scheduling core drives `Cpu::step_cycle`.
///
/// Both produce **bit-identical** results (pipeline stats, HPC vectors,
/// architectural state); they differ only in how ready work is found each
/// cycle. The scan scheduler is the original reference implementation, kept
/// for the golden-equivalence harness; the event-driven scheduler is the
/// production hot path (see `DESIGN.md`, "Simulator scheduling & hot-path
/// model").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum SchedulerKind {
    /// Event-driven: register scoreboard + per-entry dependency counters, an
    /// explicit ready queue woken by producers, and a time-ordered event heap
    /// for latency-bound completions. O(ready work) per cycle.
    #[default]
    EventDriven,
    /// Reference scan scheduler: full-ROB scans in issue/complete/dispatch,
    /// O(ROB) per cycle. Kept as the golden reference for equivalence tests.
    Scan,
}

/// Cache geometry and timing for one level.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size: usize,
    /// Line size in bytes.
    pub line: usize,
    /// Associativity (ways).
    pub ways: usize,
    /// Hit latency in cycles.
    pub hit_latency: u32,
    /// Miss-status holding registers (outstanding misses).
    pub mshrs: usize,
    /// Write-buffer entries.
    pub write_buffers: usize,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size / (self.line * self.ways)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    /// Returns a description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.line == 0 || !self.line.is_power_of_two() {
            return Err("line size must be a power of two".into());
        }
        if self.ways == 0 {
            return Err("ways must be nonzero".into());
        }
        if !self.size.is_multiple_of(self.line * self.ways) {
            return Err("size must be divisible by line*ways".into());
        }
        if self.sets() == 0 || !self.sets().is_power_of_two() {
            return Err("set count must be a nonzero power of two".into());
        }
        Ok(())
    }
}

/// Full CPU configuration. Defaults reproduce the paper's Table II:
/// X86-style O3 core, 1 thread at 2.0 GHz, tournament branch predictor,
/// 16 RAS entries, 4096 BTB entries, 32-entry LQ/SQ, 192-entry ROB,
/// 8-wide fetch/dispatch/issue/commit, 256 physical int/fp registers,
/// 32 KB 4-way L1I, 64 KB 8-way L1D, 2 MB 8-way L2.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CpuConfig {
    /// Fetch/decode/rename width per cycle.
    pub fetch_width: usize,
    /// Issue width per cycle.
    pub issue_width: usize,
    /// Commit width per cycle.
    pub commit_width: usize,
    /// Reorder-buffer entries (`ROBEntries=192`). Bounds the transient
    /// window — the property EVAX's AML hardening leans on (paper §I).
    pub rob_entries: usize,
    /// Issue-queue entries.
    pub iq_entries: usize,
    /// Load-queue entries (`LQEntries=32`).
    pub lq_entries: usize,
    /// Store-queue entries (`SQEntries=32`).
    pub sq_entries: usize,
    /// Physical integer registers (`numPhysIntRegs=256`).
    pub phys_int_regs: usize,
    /// Physical float registers (`numPhysFloatRegs=256`).
    pub phys_float_regs: usize,
    /// Branch-target buffer entries.
    pub btb_entries: usize,
    /// Return-address-stack entries.
    pub ras_entries: usize,
    /// Front-end depth: cycles from fetch to rename.
    pub frontend_depth: u32,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Shared L2.
    pub l2: CacheConfig,
    /// Data TLB entries.
    pub dtlb_entries: usize,
    /// Instruction TLB entries.
    pub itlb_entries: usize,
    /// Page-walk latency on a TLB miss.
    pub tlb_walk_latency: u32,
    /// DRAM behind the L2.
    pub dram: DramConfig,
    /// Active mitigation.
    pub mitigation: MitigationMode,
    /// Extra cycles an InvisiSpec load pays at its visibility point when the
    /// original access missed the (invisible) cache path.
    pub invisispec_expose_latency: u32,
    /// First byte of the privileged (kernel) address range; user loads from
    /// here fault at commit but forward data transiently (Meltdown surface).
    pub kernel_base: u64,
    /// Enables the L1D stride prefetcher (disabled by default so baseline
    /// results match Table II's plain configuration; the prefetcher tests
    /// exercise it).
    pub stride_prefetcher: bool,
    /// Latency of the shared RDRAND unit when uncontended.
    pub rdrand_latency: u32,
    /// Syscall cost in cycles (serialization + kernel crossing).
    pub syscall_latency: u32,
    /// Scheduling core (event-driven vs. the reference scan scheduler).
    /// Results are bit-identical either way; only throughput differs.
    pub scheduler: SchedulerKind,
    /// Sensing modalities beyond the baseline HPCs (the per-structure
    /// energy model). Disabled by default and bitwise-invisible when
    /// disabled; enabling it appends `energy.*` counters to the exported
    /// vector (see `crate::schema::FeatureSchema::for_config`).
    #[serde(default)]
    pub sensor: crate::energy::SensorConfig,
    /// Asynchronous-event devices (programmable timer, vectored interrupt
    /// controller, cycle-stealing DMA engine). Disabled by default and
    /// bitwise-invisible when disabled; enabling appends `irq.*`/`dma.*`
    /// counters to the exported vector and perturbs pipeline timing
    /// (delivery flushes, DMA port stealing).
    #[serde(default)]
    pub devices: crate::device::DeviceConfig,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            fetch_width: 8,
            issue_width: 8,
            commit_width: 8,
            rob_entries: 192,
            iq_entries: 64,
            lq_entries: 32,
            sq_entries: 32,
            phys_int_regs: 256,
            phys_float_regs: 256,
            btb_entries: 4096,
            ras_entries: 16,
            frontend_depth: 5,
            l1i: CacheConfig {
                size: 32 * 1024,
                line: 64,
                ways: 4,
                hit_latency: 1,
                mshrs: 8,
                write_buffers: 0,
            },
            l1d: CacheConfig {
                size: 64 * 1024,
                line: 64,
                ways: 8,
                hit_latency: 2,
                mshrs: 20,
                write_buffers: 8,
            },
            l2: CacheConfig {
                size: 2 * 1024 * 1024,
                line: 64,
                ways: 8,
                hit_latency: 20,
                mshrs: 20,
                write_buffers: 8,
            },
            dtlb_entries: 64,
            itlb_entries: 48,
            tlb_walk_latency: 50,
            dram: DramConfig::default(),
            mitigation: MitigationMode::None,
            invisispec_expose_latency: 12,
            kernel_base: 0xFFFF_0000_0000,
            stride_prefetcher: false,
            rdrand_latency: 40,
            syscall_latency: 100,
            scheduler: SchedulerKind::EventDriven,
            sensor: crate::energy::SensorConfig::default(),
            devices: crate::device::DeviceConfig::default(),
        }
    }
}

impl CpuConfig {
    /// Validates all sub-configurations.
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.fetch_width == 0 || self.issue_width == 0 || self.commit_width == 0 {
            return Err("pipeline widths must be nonzero".into());
        }
        if self.rob_entries < 2 {
            return Err("ROB must have at least 2 entries".into());
        }
        if self.lq_entries == 0 || self.sq_entries == 0 || self.iq_entries == 0 {
            return Err("queue sizes must be nonzero".into());
        }
        if self.ras_entries == 0 || self.btb_entries == 0 {
            return Err("predictor structures must be nonzero".into());
        }
        self.l1i.validate().map_err(|e| format!("l1i: {e}"))?;
        self.l1d.validate().map_err(|e| format!("l1d: {e}"))?;
        self.l2.validate().map_err(|e| format!("l2: {e}"))?;
        self.dram.validate().map_err(|e| format!("dram: {e}"))?;
        self.sensor.validate().map_err(|e| format!("sensor: {e}"))?;
        self.devices
            .validate()
            .map_err(|e| format!("devices: {e}"))?;
        Ok(())
    }

    /// Renders the configuration as Table II of the paper (used by the
    /// `table2` experiment).
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        s.push_str("Architecture | X86-style O3 CPU, 1 core, single thread\n");
        s.push_str(&format!(
            "Core         | Tournament branch predictor, {} RAS entries,\n",
            self.ras_entries
        ));
        s.push_str(&format!(
            "             | {} BTB entries, LQEntries={}, SQEntries={},\n",
            self.btb_entries, self.lq_entries, self.sq_entries
        ));
        s.push_str(&format!(
            "             | ROBEntries={}, fetch/disp/issue/commit {} wide,\n",
            self.rob_entries, self.fetch_width
        ));
        s.push_str(&format!(
            "             | numPhysIntRegs={}, numPhysFloatRegs={}\n",
            self.phys_int_regs, self.phys_float_regs
        ));
        s.push_str(&format!(
            "L1 I-Cache   | {}KB, {}B line, {}-way\n",
            self.l1i.size / 1024,
            self.l1i.line,
            self.l1i.ways
        ));
        s.push_str(&format!(
            "L1 D-Cache   | {}KB, {}B line, {}-way\n",
            self.l1d.size / 1024,
            self.l1d.line,
            self.l1d.ways
        ));
        s.push_str(&format!(
            "L2 Shared    | {}MB, {}B line, {}-way, latency={} mshrs={} writeBuffers={}\n",
            self.l2.size / (1024 * 1024),
            self.l2.line,
            self.l2.ways,
            self.l2.hit_latency,
            self.l2.mshrs,
            self.l2.write_buffers
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let c = CpuConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.rob_entries, 192);
        assert_eq!(c.lq_entries, 32);
        assert_eq!(c.sq_entries, 32);
        assert_eq!(c.btb_entries, 4096);
        assert_eq!(c.ras_entries, 16);
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.phys_int_regs, 256);
        assert_eq!(c.l1i.size, 32 * 1024);
        assert_eq!(c.l1d.size, 64 * 1024);
        assert_eq!(c.l1d.ways, 8);
        assert_eq!(c.l2.size, 2 * 1024 * 1024);
        assert_eq!(c.l1d.mshrs, 20);
        assert_eq!(c.l2.hit_latency, 20);
    }

    #[test]
    fn cache_sets() {
        let c = CpuConfig::default();
        assert_eq!(c.l1i.sets(), 128);
        assert_eq!(c.l1d.sets(), 128);
        assert_eq!(c.l2.sets(), 4096);
    }

    #[test]
    fn invalid_cache_rejected() {
        let mut c = CpuConfig::default();
        c.l1d.line = 60;
        assert!(c.validate().is_err());
    }

    #[test]
    fn table_render_mentions_rob() {
        let t = CpuConfig::default().to_table();
        assert!(t.contains("ROBEntries=192"));
        assert!(t.contains("Tournament"));
    }

    #[test]
    fn sensor_default_disabled_and_validated() {
        let c = CpuConfig::default();
        assert!(!c.sensor.energy);
        assert!(c.validate().is_ok());
        let mut bad = CpuConfig::default();
        bad.sensor.energy = true;
        bad.sensor.weights.dram_activate = crate::energy::MAX_ENERGY_WEIGHT + 1;
        let err = bad.validate().unwrap_err();
        assert!(err.starts_with("sensor:"), "{err}");
    }

    #[test]
    fn devices_default_disabled_and_validated() {
        let c = CpuConfig::default();
        assert!(!c.devices.enabled);
        assert!(c.validate().is_ok());
        let mut bad = CpuConfig::default();
        bad.devices.enabled = true;
        bad.devices.timer.period = 1;
        let err = bad.validate().unwrap_err();
        assert!(err.starts_with("devices:"), "{err}");
    }

    #[test]
    fn mitigation_mode_predicates() {
        assert!(MitigationMode::InvisiSpecFuturistic.is_invisispec());
        assert!(MitigationMode::InvisiSpecFuturistic.is_futuristic());
        assert!(MitigationMode::FenceSpectre.is_fence());
        assert!(!MitigationMode::None.is_fence());
    }
}
