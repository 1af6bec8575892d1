//! The DRAM device model: banks, row buffers, write queue, refresh, and the
//! disturbance module wired together.

use std::collections::VecDeque;

use crate::config::DramConfig;
use crate::corruption::{BitFlip, CorruptionModule};
use crate::state::Words;
use crate::stats::DramStats;

/// Kind of memory access presented to the DRAM controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Demand or prefetch read (cache fill).
    Read,
    /// Writeback from the cache hierarchy.
    Write,
}

/// Result of a DRAM access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramResponse {
    /// Cycles from request to data.
    pub latency: u32,
    /// `true` if the access hit the open row buffer.
    pub row_hit: bool,
    /// Bit flips induced by the activation this access caused (Rowhammer).
    pub flips: Vec<BitFlip>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowState {
    Idle,
    Open(u64),
}

/// A single DRAM device: per-bank row buffers, a controller write queue, a
/// periodic refresh sweep, and the Rowhammer [`CorruptionModule`].
///
/// Addresses are physical byte addresses; the mapping interleaves cache lines
/// across banks (low-order bank bits), the standard open-page layout.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    banks: Vec<RowState>,
    write_queue: VecDeque<u64>,
    corruption: CorruptionModule,
    stats: DramStats,
    last_refresh: u64,
    access_granularity: u64,
}

impl Dram {
    /// Creates a DRAM device.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`DramConfig::validate`]).
    pub fn new(cfg: DramConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid DRAM config: {e}");
        }
        let corruption = CorruptionModule::new(
            cfg.hammer_threshold,
            cfg.hammer_jitter,
            cfg.blast_radius,
            cfg.rows_per_bank,
            cfg.row_bytes,
        );
        Dram {
            banks: vec![RowState::Idle; cfg.banks],
            write_queue: VecDeque::new(),
            corruption,
            stats: DramStats::default(),
            last_refresh: 0,
            access_granularity: 64,
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// All Rowhammer bit flips induced so far.
    pub fn flips(&self) -> &[BitFlip] {
        self.corruption.flips()
    }

    /// Decomposes a physical address into `(bank, row, column byte)`.
    pub fn map_address(&self, addr: u64) -> (usize, u64, u64) {
        let line = addr / self.access_granularity;
        let bank = (line % self.cfg.banks as u64) as usize;
        let frame = line / self.cfg.banks as u64;
        let lines_per_row = self.cfg.row_bytes / self.access_granularity;
        let row = (frame / lines_per_row) % self.cfg.rows_per_bank;
        let col =
            (frame % lines_per_row) * self.access_granularity + addr % self.access_granularity;
        (bank, row, col)
    }

    /// Returns the smallest physical address mapping to `(bank, row)` —
    /// useful for constructing Rowhammer aggressor/victim address pairs in
    /// tests and attack kernels.
    pub fn address_of(&self, bank: usize, row: u64) -> u64 {
        let lines_per_row = self.cfg.row_bytes / self.access_granularity;
        let frame = row * lines_per_row;
        (frame * self.cfg.banks as u64 + bank as u64) * self.access_granularity
    }

    /// Physical byte address of a [`BitFlip`], accounting for the
    /// line-interleaved layout of a row across the address space.
    pub fn flip_address(&self, flip: &BitFlip) -> u64 {
        let line = flip.byte / self.access_granularity;
        let off = flip.byte % self.access_granularity;
        self.address_of(flip.bank, flip.row)
            + line * self.cfg.banks as u64 * self.access_granularity
            + off
    }

    /// Services one access at time `now` (CPU cycles), returning its latency
    /// and any induced bit flips. Also performs any due refresh sweep.
    pub fn access(&mut self, addr: u64, kind: AccessKind, now: u64) -> DramResponse {
        self.maybe_refresh(now);
        let (bank_idx, row, _col) = self.map_address(addr);

        if kind == AccessKind::Write {
            self.stats.write_reqs += 1;
            self.stats.bytes_written += self.access_granularity;
            self.write_queue.push_back(addr / self.access_granularity);
            if self.write_queue.len() > self.cfg.write_queue_capacity {
                // Forced drain: the oldest write is issued to its bank.
                self.stats.write_bursts += 1;
                if let Some(line) = self.write_queue.pop_front() {
                    let (b, r, _) = self.map_address(line * self.access_granularity);
                    let _ = self.issue_to_bank(b, r);
                }
            }
            // Writes complete into the queue from the CPU's perspective.
            return DramResponse {
                latency: self.cfg.t_bus,
                row_hit: true,
                flips: Vec::new(),
            };
        }

        self.stats.read_reqs += 1;
        self.stats.bytes_read += self.access_granularity;

        // Read hit in the write queue: serviced without touching the array.
        let line = addr / self.access_granularity;
        if self.write_queue.contains(&line) {
            self.stats.bytes_read_wr_q += self.access_granularity;
            return DramResponse {
                latency: self.cfg.t_bus,
                row_hit: true,
                flips: Vec::new(),
            };
        }

        let (latency, row_hit, flips) = self.issue_to_bank(bank_idx, row);
        DramResponse {
            latency: latency + self.cfg.t_bus,
            row_hit,
            flips,
        }
    }

    /// Issues a column access to `(bank, row)`, activating as needed.
    fn issue_to_bank(&mut self, bank_idx: usize, row: u64) -> (u32, bool, Vec<BitFlip>) {
        let state = self.banks[bank_idx];
        match state {
            RowState::Open(open) if open == row => {
                self.stats.row_buffer_hits += 1;
                (self.cfg.t_cas, true, Vec::new())
            }
            RowState::Open(_) => {
                self.stats.row_buffer_conflicts += 1;
                self.stats.precharges += 1;
                let flips = self.activate(bank_idx, row);
                (
                    self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas,
                    false,
                    flips,
                )
            }
            RowState::Idle => {
                self.stats.row_buffer_empty += 1;
                let flips = self.activate(bank_idx, row);
                (self.cfg.t_rcd + self.cfg.t_cas, false, flips)
            }
        }
    }

    fn activate(&mut self, bank_idx: usize, row: u64) -> Vec<BitFlip> {
        self.banks[bank_idx] = RowState::Open(row);
        self.stats.activations += 1;
        self.stats.energy += self.cfg.energy_per_activate;
        let flips = self.corruption.on_activate(bank_idx, row);
        self.stats.bit_flips += flips.len() as u64;
        self.stats.rows_near_threshold = self.corruption.rows_near_threshold();
        flips
    }

    fn maybe_refresh(&mut self, now: u64) {
        while now.saturating_sub(self.last_refresh) >= self.cfg.refresh_interval {
            self.last_refresh += self.cfg.refresh_interval;
            self.stats.refreshes += 1;
            self.stats.energy += self.cfg.energy_per_activate * self.cfg.banks as u64;
            self.corruption.on_refresh();
            // Refresh closes all rows.
            for b in &mut self.banks {
                *b = RowState::Idle;
            }
            self.stats.rows_near_threshold = 0;
        }
    }

    /// Visits the device state — refresh clock, bank row buffers, write
    /// queue, disturbance module, statistics (see [`crate::state`]).
    /// Geometry and timing come from the [`DramConfig`], which the
    /// simulator's snapshot header fingerprints. An open row must lie
    /// inside the bank.
    pub fn state(&mut self, w: &mut Words<'_>) -> Option<()> {
        w.u64(&mut self.last_refresh)?;
        for bank in &mut self.banks {
            let mut row = match *bank {
                RowState::Idle => u64::MAX,
                RowState::Open(row) => row,
            };
            w.u64(&mut row)?;
            *bank = match row {
                u64::MAX => RowState::Idle,
                row if row < self.cfg.rows_per_bank => RowState::Open(row),
                _ => return None,
            };
        }
        let n = w.prefix(self.write_queue.len(), usize::MAX)?;
        self.write_queue.resize(n, 0);
        w.u64s(&mut self.write_queue)?;
        self.corruption.state(w)?;
        self.stats.state(w)
    }

    /// Drains the entire write queue to the array (end-of-simulation flush).
    pub fn drain_writes(&mut self) {
        while let Some(line) = self.write_queue.pop_front() {
            let (b, r, _) = self.map_address(line * self.access_granularity);
            let _ = self.issue_to_bank(b, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig {
            hammer_threshold: 50,
            hammer_jitter: 0,
            ..Default::default()
        })
    }

    #[test]
    fn row_hit_is_faster_than_miss() {
        let mut d = dram();
        let miss = d.access(0, AccessKind::Read, 0);
        let hit = d.access(64 * d.config().banks as u64, AccessKind::Read, 100);
        assert!(!miss.row_hit);
        assert!(hit.row_hit);
        assert!(hit.latency < miss.latency);
    }

    #[test]
    fn conflict_pays_precharge() {
        let mut d = dram();
        let a = d.address_of(0, 0);
        let b = d.address_of(0, 1);
        let first = d.access(a, AccessKind::Read, 0);
        let conflict = d.access(b, AccessKind::Read, 100);
        assert!(conflict.latency > first.latency);
        assert_eq!(d.stats().row_buffer_conflicts, 1);
    }

    #[test]
    fn address_map_round_trips() {
        let d = dram();
        for (bank, row) in [(0usize, 0u64), (3, 17), (7, 1000)] {
            let addr = d.address_of(bank, row);
            let (b, r, _) = d.map_address(addr);
            assert_eq!((b, r), (bank, row));
        }
    }

    #[test]
    fn hammering_flips_victim() {
        let mut d = dram();
        let aggr1 = d.address_of(0, 10);
        let aggr2 = d.address_of(0, 12);
        let mut flips = Vec::new();
        // Alternate rows 10 and 12 (classic double-sided hammer of victim 11);
        // each access is a row conflict, so every one is an activation.
        for i in 0..120u64 {
            let addr = if i % 2 == 0 { aggr1 } else { aggr2 };
            flips.extend(d.access(addr, AccessKind::Read, i * 10).flips);
        }
        assert!(flips.iter().any(|f| f.row == 11), "flips={flips:?}");
        assert!(d.stats().bit_flips > 0);
    }

    #[test]
    fn refresh_prevents_slow_hammering() {
        let mut d = Dram::new(DramConfig {
            hammer_threshold: 50,
            hammer_jitter: 0,
            refresh_interval: 1_000,
            ..Default::default()
        });
        let aggr1 = d.address_of(0, 10);
        let aggr2 = d.address_of(0, 12);
        // Spread the same 120 activations over many refresh windows.
        for i in 0..120u64 {
            let addr = if i % 2 == 0 { aggr1 } else { aggr2 };
            let r = d.access(addr, AccessKind::Read, i * 400);
            assert!(r.flips.is_empty(), "slow hammering must not flip");
        }
        assert!(d.stats().refreshes > 0);
    }

    #[test]
    fn write_queue_services_reads() {
        let mut d = dram();
        d.access(0x1000, AccessKind::Write, 0);
        let before = d.stats().bytes_read_wr_q;
        let r = d.access(0x1000, AccessKind::Read, 10);
        assert_eq!(r.latency, d.config().t_bus);
        assert_eq!(d.stats().bytes_read_wr_q, before + 64);
    }

    #[test]
    fn write_queue_overflow_bursts() {
        let mut d = dram();
        for i in 0..40u64 {
            d.access(0x10_0000 + i * 64, AccessKind::Write, i);
        }
        assert!(d.stats().write_bursts > 0);
    }

    #[test]
    fn drain_writes_empties_queue() {
        let mut d = dram();
        for i in 0..10u64 {
            d.access(i * 64, AccessKind::Write, i);
        }
        d.drain_writes();
        // After drain, a read to a written line goes to the array, not the WQ.
        let before = d.stats().bytes_read_wr_q;
        d.access(0, AccessKind::Read, 1000);
        assert_eq!(d.stats().bytes_read_wr_q, before);
    }

    #[test]
    fn energy_accrues_with_activity() {
        let mut d = dram();
        let e0 = d.stats().energy;
        d.access(d.address_of(0, 0), AccessKind::Read, 0);
        d.access(d.address_of(0, 5), AccessKind::Read, 10);
        assert!(d.stats().energy > e0);
    }

    #[test]
    fn open_row_outside_the_bank_fails_to_load() {
        let d = dram();
        let rows = d.config().rows_per_bank;
        // Word 0 is the refresh clock; word 1 is bank 0's open row.
        assert!(crate::state::reload(&d, Dram::state, 1, rows).is_none());
        assert!(crate::state::reload(&d, Dram::state, 1, rows - 1).is_some());
        assert!(
            crate::state::reload(&d, Dram::state, 1, u64::MAX).is_some(),
            "idle"
        );
        // The write-queue length prefix follows the banks.
        let queue = 1 + d.config().banks;
        assert!(crate::state::reload(&d, Dram::state, queue, u64::MAX).is_none());
    }
}
