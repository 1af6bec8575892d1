//! The Rowhammer disturbance / memory-corruption module.
//!
//! Mirrors the paper's gem5 extension (§VII): "It determines the neighbors of
//! each row and establishes the affected ones, counts the number of
//! activations in each row since the last refresh, and affects one bit-flip
//! threshold to each row. It establishes if one bit-flip occurs and modifies
//! the affected cells in consequence."

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::state::Words;

/// Multiplicative hasher for `(bank, row)` keys. Activation bookkeeping
/// sits on the DRAM hot path (every row activation probes these maps
/// several times), where SipHash dominates; the keys are small integers,
/// so a multiply-xorshift suffices.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowHasher(u64);

impl Hasher for RowHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        self.0 = h;
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type RowMap<V> = HashMap<(usize, u64), V, BuildHasherDefault<RowHasher>>;

/// A single induced bit flip.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct BitFlip {
    /// Bank containing the victim row.
    pub bank: usize,
    /// Victim row index.
    pub row: u64,
    /// Byte offset within the row.
    pub byte: u64,
    /// Bit index within the byte (0..8).
    pub bit: u8,
}

/// Tracks per-row activation counts since the last refresh and induces bit
/// flips in neighbour rows when a row-specific threshold is exceeded.
#[derive(Debug, Clone)]
pub struct CorruptionModule {
    base_threshold: u32,
    jitter: u32,
    blast_radius: u64,
    rows_per_bank: u64,
    row_bytes: u64,
    /// (bank, row) -> activations since last refresh.
    counts: RowMap<u32>,
    /// All flips induced since construction (a victim bit flips at most once
    /// per refresh window; charge loss is not re-applied to an already
    /// flipped cell).
    flips: Vec<BitFlip>,
    /// (bank, victim row) pairs already flipped in the current refresh window.
    flipped_this_window: RowMap<()>,
    /// Rows whose count crossed half their threshold this refresh window —
    /// maintained incrementally so [`Self::rows_near_threshold`] is O(1)
    /// instead of a full map scan per activation.
    near_threshold: u64,
}

impl CorruptionModule {
    /// Creates a module with the given disturbance parameters.
    ///
    /// # Panics
    /// Panics if `base_threshold == 0` or `rows_per_bank == 0`.
    pub fn new(
        base_threshold: u32,
        jitter: u32,
        blast_radius: u64,
        rows_per_bank: u64,
        row_bytes: u64,
    ) -> Self {
        assert!(base_threshold > 0, "threshold must be nonzero");
        assert!(rows_per_bank > 0, "rows_per_bank must be nonzero");
        CorruptionModule {
            base_threshold,
            jitter,
            blast_radius,
            rows_per_bank,
            row_bytes,
            counts: RowMap::default(),
            flips: Vec::new(),
            flipped_this_window: RowMap::default(),
            near_threshold: 0,
        }
    }

    /// Deterministic per-row flip threshold: `base + hash(row) % jitter`
    /// ("one bit-flip threshold to each row").
    pub fn row_threshold(&self, bank: usize, row: u64) -> u32 {
        if self.jitter == 0 {
            return self.base_threshold;
        }
        // SplitMix64-style hash for determinism without a rand dependency.
        let mut h = row
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(bank as u64);
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        self.base_threshold + (h % self.jitter as u64) as u32
    }

    /// Activations a row has received since the last refresh.
    pub fn activation_count(&self, bank: usize, row: u64) -> u32 {
        self.counts.get(&(bank, row)).copied().unwrap_or(0)
    }

    /// Records an activation of `(bank, row)` and returns any bit flips this
    /// activation induced in neighbour rows.
    pub fn on_activate(&mut self, bank: usize, row: u64) -> Vec<BitFlip> {
        let count = self.counts.entry((bank, row)).or_insert(0);
        *count += 1;
        let count = *count;
        // Incremental near-threshold bookkeeping: a row is counted exactly
        // once, on the activation where it crosses half its threshold.
        let threshold = self.row_threshold(bank, row);
        if count * 2 >= threshold && (count - 1) * 2 < threshold {
            self.near_threshold += 1;
        }
        let mut out = Vec::new();
        for dist in 1..=self.blast_radius {
            for victim in [row.checked_sub(dist), row.checked_add(dist)]
                .into_iter()
                .flatten()
            {
                if victim >= self.rows_per_bank {
                    continue;
                }
                // Farther victims need proportionally more hammering.
                let needed = self.row_threshold(bank, victim).saturating_mul(dist as u32);
                if count >= needed && !self.flipped_this_window.contains_key(&(bank, victim)) {
                    self.flipped_this_window.insert((bank, victim), ());
                    let flip = self.flip_for(bank, victim);
                    self.flips.push(flip);
                    out.push(flip);
                }
            }
        }
        out
    }

    /// Deterministically chooses which cell of the victim row flips.
    fn flip_for(&self, bank: usize, victim: u64) -> BitFlip {
        let mut h = victim
            .wrapping_mul(0xD134_2543_DE82_EF95)
            .wrapping_add(0x1234_5678 + bank as u64);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        BitFlip {
            bank,
            row: victim,
            byte: h % self.row_bytes.max(1),
            bit: (h >> 32) as u8 % 8,
        }
    }

    /// Refresh sweep: resets all activation counters and re-arms flips.
    pub fn on_refresh(&mut self) {
        self.counts.clear();
        self.flipped_this_window.clear();
        self.near_threshold = 0;
    }

    /// All flips induced since construction.
    pub fn flips(&self) -> &[BitFlip] {
        &self.flips
    }

    /// Visits the disturbance state (see [`crate::state`]): activation
    /// counts, induced flips, and armed victims. Maps are visited sorted by
    /// key, so the words do not depend on `HashMap` iteration order; a
    /// loaded count must fit `u32` and a flipped bit must be `< 8`.
    pub(crate) fn state(&mut self, w: &mut Words<'_>) -> Option<()> {
        let mut counts: Vec<(usize, u64, u64)> = self
            .counts
            .iter()
            .map(|(&(bank, row), &count)| (bank, row, count.into()))
            .collect();
        counts.sort_unstable();
        w.seq(&mut counts, usize::MAX, |w, (bank, row, count)| {
            w.usize(bank)?;
            w.u64(row)?;
            *count = w.below(*count, 1 << 32)?;
            Some(())
        })?;
        w.seq(&mut self.flips, usize::MAX, |w, flip| {
            w.usize(&mut flip.bank)?;
            w.u64s([&mut flip.row, &mut flip.byte])?;
            flip.bit = w.below(flip.bit.into(), 8)? as u8;
            Some(())
        })?;
        let mut armed: Vec<(usize, u64)> = self.flipped_this_window.keys().copied().collect();
        armed.sort_unstable();
        w.seq(&mut armed, usize::MAX, |w, (bank, row)| {
            w.usize(bank)?;
            w.u64(row)
        })?;
        if w.loading() {
            self.counts = counts
                .into_iter()
                .map(|(bank, row, count)| ((bank, row), count as u32))
                .collect();
            self.near_threshold = self
                .counts
                .iter()
                .filter(|(&(bank, row), &c)| {
                    // Widened: a loaded count may be anywhere in `u32`.
                    u64::from(c) * 2 >= u64::from(self.row_threshold(bank, row))
                })
                .count() as u64;
            self.flipped_this_window = armed.into_iter().map(|key| (key, ())).collect();
        }
        Some(())
    }

    /// Number of rows whose count exceeds half their threshold (early-warning
    /// signal exported to the HPC space).
    pub fn rows_near_threshold(&self) -> u64 {
        self.near_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module() -> CorruptionModule {
        CorruptionModule::new(100, 0, 1, 1 << 10, 8192)
    }

    #[test]
    fn no_flip_below_threshold() {
        let mut m = module();
        for _ in 0..99 {
            assert!(m.on_activate(0, 5).is_empty());
        }
        assert!(m.flips().is_empty());
    }

    #[test]
    fn flips_both_neighbours_at_threshold() {
        let mut m = module();
        let mut flipped = Vec::new();
        for _ in 0..100 {
            flipped.extend(m.on_activate(0, 5));
        }
        let rows: Vec<u64> = flipped.iter().map(|f| f.row).collect();
        assert!(rows.contains(&4) && rows.contains(&6), "rows={rows:?}");
    }

    #[test]
    fn refresh_resets_counts() {
        let mut m = module();
        for _ in 0..99 {
            m.on_activate(0, 5);
        }
        m.on_refresh();
        assert_eq!(m.activation_count(0, 5), 0);
        for _ in 0..99 {
            assert!(m.on_activate(0, 5).is_empty());
        }
    }

    #[test]
    fn victim_flips_once_per_window() {
        let mut m = module();
        let mut n = 0;
        for _ in 0..300 {
            n += m.on_activate(0, 5).len();
        }
        assert_eq!(n, 2); // one per neighbour
        m.on_refresh();
        for _ in 0..100 {
            n += m.on_activate(0, 5).len();
        }
        assert_eq!(n, 4);
    }

    #[test]
    fn edge_rows_have_one_neighbour() {
        let mut m = module();
        let mut flipped = Vec::new();
        for _ in 0..100 {
            flipped.extend(m.on_activate(0, 0));
        }
        assert_eq!(flipped.len(), 1);
        assert_eq!(flipped[0].row, 1);
    }

    #[test]
    fn jitter_varies_threshold_per_row() {
        let m = CorruptionModule::new(100, 64, 1, 1 << 10, 8192);
        let t: Vec<u32> = (0..32).map(|r| m.row_threshold(0, r)).collect();
        assert!(
            t.iter().any(|&x| x != t[0]),
            "jitter should vary thresholds"
        );
        assert!(t.iter().all(|&x| (100..164).contains(&x)));
    }

    #[test]
    fn near_threshold_counter() {
        let mut m = module();
        for _ in 0..60 {
            m.on_activate(0, 7);
        }
        assert_eq!(m.rows_near_threshold(), 1);
    }

    #[test]
    fn banks_are_independent() {
        let mut m = module();
        for _ in 0..99 {
            m.on_activate(0, 5);
            m.on_activate(1, 5);
        }
        assert_eq!(m.activation_count(0, 5), 99);
        assert_eq!(m.activation_count(1, 5), 99);
        assert!(m.flips().is_empty());
    }

    #[test]
    fn out_of_range_words_fail_to_load() {
        let mut m = module();
        for _ in 0..100 {
            m.on_activate(0, 5);
        }
        assert_eq!(m.flips().len(), 2);
        // [1 count: bank, row, count] [2 flips: bank, row, byte, bit ...] ...
        let reload = |at, v| crate::state::reload(&m, CorruptionModule::state, at, v);
        assert!(reload(3, 1 << 32).is_none(), "count must fit u32");
        assert!(reload(3, u32::MAX.into()).is_some());
        assert!(reload(8, 8).is_none(), "flip bit must be < 8");
        assert!(reload(8, 7).is_some());
    }
}
