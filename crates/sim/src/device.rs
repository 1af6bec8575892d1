//! Asynchronous-event devices: a programmable timer, a two-vector
//! interrupt controller, and a cycle-stealing DMA engine.
//!
//! ROADMAP item 4 leaves "interrupt/DMA/timer-driven workloads and
//! multi-tenant interleaving" open: real full-system traces are never the
//! clean single-program streams the paper evaluates on. This module gives
//! the core the three async event sources that dominate that noise
//! (RustyBoy's MMIO timer/interrupt/DMA machinery is the idiom reference):
//!
//! * a **timer** that raises IRQ vector 0 every `period` cycles,
//! * an **interrupt controller** with two vectors and per-program handler
//!   entry points ([`crate::isa::Program::irq_handler`]); delivery flushes
//!   the pipeline and redirects fetch, identically under the Scan and
//!   event-driven schedulers, and the handler returns with
//!   [`crate::isa::Op::IRet`],
//! * a **DMA engine** that copies cache lines through the memory system on
//!   its own schedule, stealing a memory-issue port from the core on burst
//!   cycles and optionally raising IRQ vector 1 every `irq_every` bursts.
//!
//! Design constraints match [`crate::energy::SensorConfig`]:
//!
//! * **Bitwise-invisible when disabled.** The default config carries no
//!   runtime state at all ([`crate::Cpu`] holds `Option<DeviceState>`,
//!   `None` when disabled), so the hot path is untouched and every golden
//!   stream is bit-identical to the pre-device simulator.
//! * **Deterministic.** Fire times are pure functions of the cycle count
//!   and the config; DMA traffic is a fixed ring walk. Two runs (at any
//!   worker thread count) produce identical streams.
//! * **Observable.** Ten `irq.*`/`dma.*` counters append to the HPC vector
//!   after the energy tail, tagged with the `Device` modality in
//!   [`crate::schema::FeatureSchema`].

use evax_dram::state::Words;

/// Number of interrupt vectors the controller dispatches (vector 0 = timer,
/// vector 1 = DMA completion).
pub const NUM_IRQ_VECTORS: usize = 2;

/// Number of `irq.*`/`dma.*` counters appended to the HPC vector when the
/// device subsystem is enabled.
pub const DEVICE_DIM: usize = 10;

/// Names of the device counters, in the order they are visited.
pub const DEVICE_NAMES: [&str; DEVICE_DIM] = [
    "irq.timerFires",
    "irq.raised",
    "irq.taken",
    "irq.dropped",
    "irq.returns",
    "irq.squashedInsts",
    "irq.pendingCycles",
    "dma.bursts",
    "dma.lines",
    "dma.portStealCycles",
];

/// Base address of the DMA source ring (user-space, far from the workload
/// layout regions so carriers and attacks never alias it by accident).
pub const DMA_SRC_BASE: u64 = 0x7000_0000;

/// Base address of the DMA destination ring.
pub const DMA_DST_BASE: u64 = 0x7800_0000;

/// Bytes per DMA line (one cache line).
pub const DMA_LINE_BYTES: u64 = 64;

/// Shortest accepted timer period: below this the handler cannot retire
/// before the next fire and the core livelocks in delivery.
pub const MIN_TIMER_PERIOD: u64 = 64;

/// Shortest accepted DMA burst period.
pub const MIN_DMA_PERIOD: u64 = 16;

/// Programmable one-shot-repeating timer (IRQ vector 0).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TimerConfig {
    /// Cycles between fires; `0` disables the timer.
    pub period: u64,
}

/// Cycle-stealing DMA engine (IRQ vector 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DmaConfig {
    /// Cycles between bursts; `0` disables the engine.
    pub period: u64,
    /// Cache lines copied per burst.
    pub burst_lines: u64,
    /// Length of the source/destination rings, in lines.
    pub region_lines: u64,
    /// Raise IRQ vector 1 every this many bursts; `0` never interrupts.
    pub irq_every: u64,
}

impl Default for DmaConfig {
    fn default() -> Self {
        DmaConfig {
            period: 0,
            burst_lines: 4,
            region_lines: 256,
            irq_every: 0,
        }
    }
}

/// Asynchronous-event configuration carried by
/// [`CpuConfig`](crate::config::CpuConfig).
///
/// `Default` is bit-compatible with the pre-device simulator: everything is
/// **off**, and a disabled subsystem is bitwise-invisible (golden tests pin
/// this). Build non-default values as a struct literal over
/// `..Default::default()`; [`Cpu::new`](crate::Cpu::new) checks them through
/// [`DeviceConfig::validate`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DeviceConfig {
    /// Master switch. When `false` the core allocates no device state and
    /// the stream is bit-identical to a device-free build.
    pub enabled: bool,
    /// Timer settings (used only when `enabled`).
    pub timer: TimerConfig,
    /// DMA settings (used only when `enabled`).
    pub dma: DmaConfig,
}

impl DeviceConfig {
    /// Number of extra counters this subsystem appends to the HPC vector
    /// (0 when disabled).
    pub fn extra_dim(&self) -> usize {
        if self.enabled {
            DEVICE_DIM
        } else {
            0
        }
    }

    /// Validates the configuration (periods are only checked when the
    /// subsystem is enabled, so a disabled default never rejects).
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        if self.timer.period != 0 && self.timer.period < MIN_TIMER_PERIOD {
            return Err(format!(
                "timer period {} is below MIN_TIMER_PERIOD ({MIN_TIMER_PERIOD}); \
                 the handler could never retire between fires",
                self.timer.period
            ));
        }
        if self.dma.period != 0 {
            if self.dma.period < MIN_DMA_PERIOD {
                return Err(format!(
                    "dma period {} is below MIN_DMA_PERIOD ({MIN_DMA_PERIOD})",
                    self.dma.period
                ));
            }
            if self.dma.burst_lines == 0 {
                return Err("dma burst_lines must be at least 1".into());
            }
            if self.dma.region_lines == 0 {
                return Err("dma region_lines must be at least 1".into());
            }
            if self.dma.burst_lines > self.dma.region_lines {
                return Err(format!(
                    "dma burst_lines ({}) exceeds region_lines ({})",
                    self.dma.burst_lines, self.dma.region_lines
                ));
            }
        }
        if self.timer.period == 0 && self.dma.period == 0 {
            return Err("device subsystem enabled but both timer and dma are off".into());
        }
        Ok(())
    }
}

/// Cumulative device event counts, visited as `irq.*`/`dma.*` HPC columns
/// (order matches [`DEVICE_NAMES`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeviceStats {
    /// Timer expirations (vector-0 raises).
    pub timer_fires: u64,
    /// Total IRQ raises across vectors.
    pub irq_raised: u64,
    /// Deliveries that found a handler and redirected the pipeline.
    pub irq_taken: u64,
    /// Raises discarded because the running program installs no handler
    /// for that vector.
    pub irq_dropped: u64,
    /// `IRet` commits that returned from a service routine.
    pub irq_returns: u64,
    /// In-flight instructions flushed by IRQ delivery.
    pub irq_squashed_insts: u64,
    /// Cycles with at least one vector pending (delivery pressure).
    pub irq_pending_cycles: u64,
    /// DMA bursts performed.
    pub dma_bursts: u64,
    /// Cache lines copied by DMA.
    pub dma_lines: u64,
    /// Cycles where DMA stole a memory-issue port from the core.
    pub dma_port_steal_cycles: u64,
}

/// Computes the device counters (order matches [`DEVICE_NAMES`]) from the
/// cumulative stats. Pure; exact integer values, so window deltas are exact.
pub fn device_counters(s: &DeviceStats) -> [u64; DEVICE_DIM] {
    [
        s.timer_fires,
        s.irq_raised,
        s.irq_taken,
        s.irq_dropped,
        s.irq_returns,
        s.irq_squashed_insts,
        s.irq_pending_cycles,
        s.dma_bursts,
        s.dma_lines,
        s.dma_port_steal_cycles,
    ]
}

/// Runtime state of the device subsystem, owned by [`crate::Cpu`] only when
/// [`DeviceConfig::enabled`] is set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceState {
    /// Cycle of the next timer fire (`u64::MAX` when the timer is off).
    pub timer_next_fire: u64,
    /// Cycle of the next DMA burst (`u64::MAX` when the engine is off).
    pub dma_next_burst: u64,
    /// Line index of the next DMA copy within the ring.
    pub dma_cursor: u64,
    /// Bursts since the last vector-1 raise.
    pub dma_bursts_since_irq: u64,
    /// Pending-vector bitmask (bit `v` = vector `v` raised, not yet
    /// delivered or dropped).
    pub irq_pending: u64,
    /// A service routine is running; delivery is masked until its `IRet`.
    pub irq_in_service: bool,
    /// Architectural pc to resume at when the service routine returns.
    pub irq_return_pc: usize,
    /// Cumulative event counts.
    pub stats: DeviceStats,
}

impl DeviceState {
    /// Fresh state with fire times armed relative to cycle 0.
    pub fn new(cfg: &DeviceConfig) -> DeviceState {
        let mut s = DeviceState {
            timer_next_fire: u64::MAX,
            dma_next_burst: u64::MAX,
            dma_cursor: 0,
            dma_bursts_since_irq: 0,
            irq_pending: 0,
            irq_in_service: false,
            irq_return_pc: 0,
            stats: DeviceStats::default(),
        };
        s.rearm(0, cfg);
        s
    }

    /// Re-arms fire times relative to `cycle` and clears transient IRQ
    /// state (pending raises, in-service flag, return pc, ring cursor).
    /// Cumulative [`DeviceStats`] survive — HPC sampling works on deltas.
    pub fn reset_for_run(&mut self, cycle: u64, cfg: &DeviceConfig) {
        self.irq_pending = 0;
        self.irq_in_service = false;
        self.irq_return_pc = 0;
        self.dma_cursor = 0;
        self.dma_bursts_since_irq = 0;
        self.rearm(cycle, cfg);
    }

    fn rearm(&mut self, cycle: u64, cfg: &DeviceConfig) {
        self.timer_next_fire = if cfg.timer.period == 0 {
            u64::MAX
        } else {
            cycle + cfg.timer.period
        };
        self.dma_next_burst = if cfg.dma.period == 0 {
            u64::MAX
        } else {
            cycle + cfg.dma.period
        };
    }

    /// Visits the device state (see [`evax_dram::state`]). A loaded
    /// pending mask must fit [`NUM_IRQ_VECTORS`] bits and the in-service
    /// word must be 0/1.
    pub(crate) fn state(&mut self, w: &mut Words<'_>) -> Option<()> {
        w.u64s([
            &mut self.timer_next_fire,
            &mut self.dma_next_burst,
            &mut self.dma_cursor,
            &mut self.dma_bursts_since_irq,
        ])?;
        self.irq_pending = w.below(self.irq_pending, 1 << NUM_IRQ_VECTORS)?;
        w.flag(&mut self.irq_in_service)?;
        w.usize(&mut self.irq_return_pc)?;
        let DeviceStats {
            timer_fires,
            irq_raised,
            irq_taken,
            irq_dropped,
            irq_returns,
            irq_squashed_insts,
            irq_pending_cycles,
            dma_bursts,
            dma_lines,
            dma_port_steal_cycles,
        } = &mut self.stats;
        w.u64s([
            timer_fires,
            irq_raised,
            irq_taken,
            irq_dropped,
            irq_returns,
            irq_squashed_insts,
            irq_pending_cycles,
            dma_bursts,
            dma_lines,
            dma_port_steal_cycles,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_and_valid() {
        let d = DeviceConfig::default();
        assert!(!d.enabled);
        assert_eq!(d.extra_dim(), 0);
        assert!(d.validate().is_ok());
    }

    /// An enabled subsystem with the given timer period and DMA settings.
    fn enabled(timer_period: u64, dma: DmaConfig) -> DeviceConfig {
        DeviceConfig {
            enabled: true,
            timer: TimerConfig {
                period: timer_period,
            },
            dma,
        }
    }

    /// An enabled subsystem with only the timer armed.
    fn timer_only(period: u64) -> DeviceConfig {
        enabled(period, DmaConfig::default())
    }

    #[test]
    fn enabled_timer_validates_and_widens() {
        let d = timer_only(500);
        assert!(d.validate().is_ok());
        assert_eq!(d.extra_dim(), DEVICE_DIM);
    }

    #[test]
    fn validate_rejects_livelock_timer() {
        let err = timer_only(MIN_TIMER_PERIOD - 1).validate().unwrap_err();
        assert!(err.contains("MIN_TIMER_PERIOD"), "{err}");
    }

    #[test]
    fn validate_rejects_empty_enable() {
        let err = timer_only(0).validate().unwrap_err();
        assert!(err.contains("both timer and dma are off"), "{err}");
    }

    #[test]
    fn validate_rejects_bad_dma_geometry() {
        let bad = DmaConfig {
            period: 100,
            burst_lines: 0,
            ..DmaConfig::default()
        };
        assert!(enabled(0, bad).validate().is_err());
        let oversize = DmaConfig {
            period: 100,
            burst_lines: 8,
            region_lines: 4,
            irq_every: 0,
        };
        assert!(enabled(0, oversize).validate().is_err());
    }

    #[test]
    fn names_match_dim_and_are_prefixed() {
        assert_eq!(DEVICE_NAMES.len(), DEVICE_DIM);
        for n in DEVICE_NAMES {
            assert!(n.starts_with("irq.") || n.starts_with("dma."), "{n}");
        }
    }

    #[test]
    fn state_round_trips_through_words() {
        let cfg = enabled(
            200,
            DmaConfig {
                period: 64,
                burst_lines: 2,
                region_lines: 32,
                irq_every: 4,
            },
        );
        let mut s = DeviceState::new(&cfg);
        s.irq_pending = 0b10;
        s.irq_in_service = true;
        s.irq_return_pc = 1234;
        s.stats.dma_bursts = 7;
        s.stats.irq_taken = 3;
        let mut words = Vec::new();
        s.clone()
            .state(&mut Words::Save(&mut words))
            .expect("saves");
        let mut other = DeviceState::new(&cfg);
        other.state(&mut Words::Load(words.iter())).expect("loads");
        assert_eq!(other, s);
    }

    #[test]
    fn reset_for_run_keeps_cumulative_stats() {
        let cfg = timer_only(100);
        let mut s = DeviceState::new(&cfg);
        s.stats.timer_fires = 9;
        s.irq_pending = 1;
        s.irq_in_service = true;
        s.reset_for_run(5_000, &cfg);
        assert_eq!(s.stats.timer_fires, 9, "stats are cumulative");
        assert_eq!(s.irq_pending, 0);
        assert!(!s.irq_in_service);
        assert_eq!(s.timer_next_fire, 5_100);
    }

    #[test]
    fn out_of_range_words_fail_to_load() {
        let cfg = timer_only(200);
        let s = DeviceState::new(&cfg);
        // Words 4 and 5 are the pending mask and the in-service flag.
        let pending = |v| crate::reload(&s, DeviceState::state, 4, v);
        assert!(pending(1 << NUM_IRQ_VECTORS).is_none());
        assert!(pending((1 << NUM_IRQ_VECTORS) - 1).is_some());
        assert!(crate::reload(&s, DeviceState::state, 5, 2).is_none());
        assert!(crate::reload(&s, DeviceState::state, 5, 1).is_some());
    }
}
