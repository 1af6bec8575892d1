//! DRAM-side event counters exported to the detector feature space.

use crate::state::Words;

/// Counters maintained by [`crate::Dram`], named after the Ramulator/gem5
/// statistics the EVAX paper lists as highly correlated with DRAM-side
/// attacks (`selfRefreshEnergy`, `bytesPerActivate`, `bytesReadWrQ`, §VIII-C).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DramStats {
    /// Row activations (ACT commands).
    pub activations: u64,
    /// Accesses that hit the open row buffer.
    pub row_buffer_hits: u64,
    /// Accesses that required closing one row and opening another.
    pub row_buffer_conflicts: u64,
    /// Accesses to an idle (precharged) bank.
    pub row_buffer_empty: u64,
    /// Precharge (row close) commands.
    pub precharges: u64,
    /// Refresh sweeps completed.
    pub refreshes: u64,
    /// Read requests serviced.
    pub read_reqs: u64,
    /// Write requests enqueued.
    pub write_reqs: u64,
    /// Bytes read in total.
    pub bytes_read: u64,
    /// Bytes written in total.
    pub bytes_written: u64,
    /// Reads serviced directly from the write queue (`bytesReadWrQ`).
    pub bytes_read_wr_q: u64,
    /// Write-queue forced drains (queue full).
    pub write_bursts: u64,
    /// Abstract energy charged for activations + refreshes
    /// (`selfRefreshEnergy` analog).
    pub energy: u64,
    /// Bit flips induced by disturbance (Rowhammer) since start.
    pub bit_flips: u64,
    /// Rows whose disturbance count crossed half the flip threshold —
    /// an early-warning signal.
    pub rows_near_threshold: u64,
}

impl DramStats {
    /// Visits every counter, in field order (see [`crate::state`]).
    pub(crate) fn state(&mut self, w: &mut Words<'_>) -> Option<()> {
        let DramStats {
            activations,
            row_buffer_hits,
            row_buffer_conflicts,
            row_buffer_empty,
            precharges,
            refreshes,
            read_reqs,
            write_reqs,
            bytes_read,
            bytes_written,
            bytes_read_wr_q,
            write_bursts,
            energy,
            bit_flips,
            rows_near_threshold,
        } = self;
        w.u64s([
            activations,
            row_buffer_hits,
            row_buffer_conflicts,
            row_buffer_empty,
            precharges,
            refreshes,
            read_reqs,
            write_reqs,
            bytes_read,
            bytes_written,
            bytes_read_wr_q,
            write_bursts,
            energy,
            bit_flips,
            rows_near_threshold,
        ])
    }

    /// Bytes accessed per row activation — the paper's `bytesPerActivate`.
    /// High values mean streaming; values near one cache line mean
    /// activation-thrashing (Rowhammer/DRAMA signature).
    pub fn bytes_per_activate(&self) -> f64 {
        if self.activations == 0 {
            0.0
        } else {
            (self.bytes_read + self.bytes_written) as f64 / self.activations as f64
        }
    }

    /// Row-buffer hit rate over all accesses.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_buffer_hits + self.row_buffer_conflicts + self.row_buffer_empty;
        if total == 0 {
            0.0
        } else {
            self.row_buffer_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_per_activate_handles_zero() {
        assert_eq!(DramStats::default().bytes_per_activate(), 0.0);
    }

    #[test]
    fn bytes_per_activate_ratio() {
        let s = DramStats {
            activations: 4,
            bytes_read: 64,
            bytes_written: 64,
            ..Default::default()
        };
        assert_eq!(s.bytes_per_activate(), 32.0);
    }

    #[test]
    fn hit_rate() {
        let s = DramStats {
            row_buffer_hits: 3,
            row_buffer_conflicts: 1,
            row_buffer_empty: 0,
            ..Default::default()
        };
        assert!((s.row_hit_rate() - 0.75).abs() < 1e-12);
    }
}
