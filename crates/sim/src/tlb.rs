//! Translation lookaside buffers (fully associative, LRU).

use evax_dram::state::Words;

/// TLB statistics (`dtlb.rdMisses` and friends).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TlbStats {
    /// Read (load/fetch) hits.
    pub rd_hits: u64,
    /// Read misses (page walks).
    pub rd_misses: u64,
    /// Write (store) hits.
    pub wr_hits: u64,
    /// Write misses.
    pub wr_misses: u64,
    /// Entries evicted.
    pub evictions: u64,
}

/// A fully-associative TLB over 4 KiB pages.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<(u64, u64)>, // (page, lru)
    capacity: usize,
    tick: u64,
    stats: TlbStats,
}

const PAGE_SHIFT: u32 = 12;

impl Tlb {
    /// Creates a TLB with `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB must have entries");
        Tlb {
            entries: Vec::with_capacity(capacity),
            capacity,
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Translates `addr`; returns `true` on a hit. A miss installs the
    /// translation (after the caller charges the walk latency).
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        self.tick += 1;
        let page = addr >> PAGE_SHIFT;
        if let Some(i) = self.entries.iter().position(|(p, _)| *p == page) {
            self.entries[i].1 = self.tick;
            // Move-to-front so the hot page is found in one comparison.
            // Vec order carries no semantics: hits match any position,
            // eviction picks the minimum (unique) LRU stamp.
            self.entries.swap(0, i);
            if write {
                self.stats.wr_hits += 1;
            } else {
                self.stats.rd_hits += 1;
            }
            return true;
        }
        if write {
            self.stats.wr_misses += 1;
        } else {
            self.stats.rd_misses += 1;
        }
        if self.entries.len() >= self.capacity {
            let (idx, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, lru))| *lru)
                .expect("nonempty");
            self.entries.swap_remove(idx);
            self.stats.evictions += 1;
        }
        self.entries.push((page, self.tick));
        false
    }

    /// `true` if the page containing `addr` is cached (no state change).
    pub fn contains(&self, addr: u64) -> bool {
        let page = addr >> PAGE_SHIFT;
        self.entries.iter().any(|(p, _)| *p == page)
    }

    /// Drops every entry (context-switch / secure-mode flush analog).
    pub fn flush(&mut self) {
        self.stats.evictions += self.entries.len() as u64;
        self.entries.clear();
    }

    /// Visits the TLB state — clock, entries with LRU stamps, statistics
    /// (see [`evax_dram::state`]). Capacity comes from construction; a
    /// loaded entry count must not exceed it.
    pub(crate) fn state(&mut self, w: &mut Words<'_>) -> Option<()> {
        w.u64(&mut self.tick)?;
        w.seq(&mut self.entries, self.capacity, |w, (page, lru)| {
            w.u64s([page, lru])
        })?;
        let TlbStats {
            rd_hits,
            rd_misses,
            wr_hits,
            wr_misses,
            evictions,
        } = &mut self.stats;
        w.u64s([rd_hits, rd_misses, wr_hits, wr_misses, evictions])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_same_page() {
        let mut t = Tlb::new(4);
        assert!(!t.access(0x1000, false));
        assert!(t.access(0x1FFF, false)); // same page
        assert!(!t.access(0x2000, false)); // next page
        assert_eq!(t.stats().rd_misses, 2);
        assert_eq!(t.stats().rd_hits, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2);
        t.access(0x1000, false);
        t.access(0x2000, false);
        t.access(0x1000, false); // refresh page 1
        t.access(0x3000, false); // evicts page 2
        assert!(t.contains(0x1000));
        assert!(!t.contains(0x2000));
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn write_misses_counted_separately() {
        let mut t = Tlb::new(4);
        t.access(0x5000, true);
        t.access(0x5000, true);
        assert_eq!(t.stats().wr_misses, 1);
        assert_eq!(t.stats().wr_hits, 1);
    }

    #[test]
    fn flush_empties() {
        let mut t = Tlb::new(4);
        t.access(0x1000, false);
        t.flush();
        assert!(!t.contains(0x1000));
    }

    #[test]
    fn entry_count_beyond_capacity_fails_to_load() {
        let mut t = Tlb::new(2);
        t.access(0x1000, false);
        // Word 0 is the clock, word 1 the entry count.
        assert!(crate::reload(&t, Tlb::state, 1, 3).is_none());
        assert!(crate::reload(&t, Tlb::state, 1, 0).is_some());
    }
}
