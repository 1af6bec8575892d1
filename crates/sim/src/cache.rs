//! Set-associative cache with LRU replacement, MSHRs and a write buffer.
//!
//! Speculative accesses mutate cache state by default — that *is* the side
//! channel every attack in the paper transmits over. InvisiSpec-mode loads
//! bypass installation (see `cpu.rs`).

use std::ops::Range;

use evax_dram::state::Words;

use crate::config::CacheConfig;

/// Per-cache event counters, named after the gem5 statistics EVAX samples.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Read hits.
    pub read_hits: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write hits.
    pub write_hits: u64,
    /// Write misses.
    pub write_misses: u64,
    /// Evictions of clean (never-written) lines — `cleanEvicts`, the
    /// Flush+Reload / Prime+Probe signature counter (paper Fig. 9).
    pub clean_evicts: u64,
    /// Evictions of dirty lines (writebacks).
    pub writebacks: u64,
    /// Lines invalidated by explicit flushes (`clflush`).
    pub flushes: u64,
    /// Accesses that allocated an MSHR (`mshr_misses`).
    pub mshr_misses: u64,
    /// Cumulative latency of MSHR misses (`ReadReq_mshr_miss_latency`).
    pub mshr_miss_latency: u64,
    /// Accesses stalled because all MSHRs were busy.
    pub mshr_full_events: u64,
    /// Prefetch fills.
    pub prefetch_fills: u64,
    /// Hits on lines brought in by a prefetch.
    pub prefetch_hits: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    prefetched: bool,
    /// LRU timestamp (higher = more recent).
    lru: u64,
}

const INVALID: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    prefetched: false,
    lru: 0,
};

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// `true` on hit.
    pub hit: bool,
    /// Cycles spent at this level (hit latency, or hit latency + MSHR wait).
    pub latency: u32,
    /// `true` if the miss could not get an MSHR and had to stall.
    pub mshr_stall: bool,
    /// A line evicted by the fill triggered by this access, if any — the
    /// address of its first byte.
    pub evicted: Option<u64>,
}

/// A single cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// All lines in one set-major buffer: set `s` is
    /// `lines[s * ways..(s + 1) * ways]`.
    lines: Vec<Line>,
    stats: CacheStats,
    tick: u64,
    /// Completion times of in-flight misses, for MSHR occupancy.
    mshr_busy_until: Vec<u64>,
}

impl Cache {
    /// Creates a cache from its configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: CacheConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid cache config: {e}");
        }
        Cache {
            lines: vec![INVALID; cfg.sets() * cfg.ways],
            stats: CacheStats::default(),
            tick: 0,
            mshr_busy_until: Vec::new(),
            cfg,
        }
    }

    /// The geometry/timing configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr / self.cfg.line as u64;
        let set = (line_addr % self.cfg.sets() as u64) as usize;
        (set, line_addr)
    }

    /// The index range of set `set`'s ways in `lines`.
    fn ways(&self, set: usize) -> Range<usize> {
        let ways = self.cfg.ways;
        set * ways..(set + 1) * ways
    }

    /// `true` if `addr`'s line is present (no state change, no stats) —
    /// used by tests and the attack harness's "probe without touching".
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.lines[self.ways(set)]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Performs a read/write lookup at time `now`; on a miss the caller is
    /// responsible for accessing the next level and then calling
    /// [`Cache::fill`] (unless running invisibly).
    pub fn access(&mut self, addr: u64, write: bool, now: u64) -> CacheAccess {
        self.tick += 1;
        let (set, tag) = self.index(addr);
        let ways = self.ways(set);
        let ways = &mut self.lines[ways];
        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.tick;
            if write {
                line.dirty = true;
                self.stats.write_hits += 1;
            } else {
                self.stats.read_hits += 1;
            }
            if line.prefetched {
                self.stats.prefetch_hits += 1;
                line.prefetched = false;
            }
            return CacheAccess {
                hit: true,
                latency: self.cfg.hit_latency,
                mshr_stall: false,
                evicted: None,
            };
        }
        // Miss.
        if write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        // MSHR availability.
        self.mshr_busy_until.retain(|&t| t > now);
        let mshr_stall = self.mshr_busy_until.len() >= self.cfg.mshrs;
        if mshr_stall {
            self.stats.mshr_full_events += 1;
        } else {
            self.stats.mshr_misses += 1;
        }
        CacheAccess {
            hit: false,
            latency: self.cfg.hit_latency,
            mshr_stall,
            evicted: None,
        }
    }

    /// Registers an in-flight miss occupying an MSHR until `done`.
    pub fn note_miss_latency(&mut self, latency: u64, done: u64) {
        self.stats.mshr_miss_latency += latency;
        self.mshr_busy_until.push(done);
    }

    /// Installs the line containing `addr`, evicting the LRU way. Returns
    /// the base address of the evicted line, if one was valid.
    pub fn fill(&mut self, addr: u64, dirty: bool, prefetched: bool) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let line_bytes = self.cfg.line as u64;
        let sets_len = self.cfg.sets() as u64;
        let (set, tag) = self.index(addr);
        let ways = self.ways(set);
        let ways = &mut self.lines[ways];
        // Already present (racing fills): just update.
        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.dirty |= dirty;
            line.lru = tick;
            return None;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("cache has ways");
        let evicted = if victim.valid {
            if victim.dirty {
                self.stats.writebacks += 1;
            } else {
                self.stats.clean_evicts += 1;
            }
            Some(victim.tag * line_bytes)
        } else {
            None
        };
        if prefetched {
            self.stats.prefetch_fills += 1;
        }
        *victim = Line {
            tag,
            valid: true,
            dirty,
            prefetched,
            lru: tick,
        };
        debug_assert_eq!(tag % sets_len, set as u64);
        evicted
    }

    /// Invalidates the line containing `addr` (`clflush`). Returns `true` if
    /// a line was present.
    pub fn flush_line(&mut self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        let ways = self.ways(set);
        for line in &mut self.lines[ways] {
            if line.valid && line.tag == tag {
                *line = INVALID;
                self.stats.flushes += 1;
                return true;
            }
        }
        false
    }

    /// Invalidates everything (used at secure-mode entry by some policies).
    pub fn flush_all(&mut self) {
        for line in &mut self.lines {
            if line.valid {
                self.stats.flushes += 1;
            }
            *line = INVALID;
        }
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// Visits the full cache state — lines in set-major order, LRU clock,
    /// in-flight MSHR deadlines, statistics (see [`evax_dram::state`]).
    /// Geometry is not recorded: it is re-derived from the [`CacheConfig`]
    /// at restore, which the snapshot header fingerprints. A line's flag
    /// word must be `<= 0b111`.
    pub(crate) fn state(&mut self, w: &mut Words<'_>) -> Option<()> {
        w.u64(&mut self.tick)?;
        for line in &mut self.lines {
            let flags =
                line.valid as u64 | (line.dirty as u64) << 1 | (line.prefetched as u64) << 2;
            w.u64(&mut line.tag)?;
            let flags = w.below(flags, 0b1000)?;
            w.u64(&mut line.lru)?;
            (line.valid, line.dirty, line.prefetched) =
                (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
        }
        w.seq(&mut self.mshr_busy_until, usize::MAX, Words::u64)?;
        let CacheStats {
            read_hits,
            read_misses,
            write_hits,
            write_misses,
            clean_evicts,
            writebacks,
            flushes,
            mshr_misses,
            mshr_miss_latency,
            mshr_full_events,
            prefetch_fills,
            prefetch_hits,
        } = &mut self.stats;
        w.u64s([
            read_hits,
            read_misses,
            write_hits,
            write_misses,
            clean_evicts,
            writebacks,
            flushes,
            mshr_misses,
            mshr_miss_latency,
            mshr_full_events,
            prefetch_fills,
            prefetch_hits,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size: 1024,
            line: 64,
            ways: 2,
            hit_latency: 2,
            mshrs: 4,
            write_buffers: 4,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let a = c.access(0x100, false, 0);
        assert!(!a.hit);
        c.fill(0x100, false, false);
        let b = c.access(0x100, false, 1);
        assert!(b.hit);
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut c = small();
        c.fill(0x100, false, false);
        assert!(c.access(0x13F, false, 0).hit);
        assert!(!c.access(0x140, false, 0).hit);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small(); // 8 sets, 2 ways
        let set_stride = 64 * 8; // same set every 512 bytes
        c.fill(0, false, false);
        c.fill(set_stride as u64, false, false);
        // Touch the first line so the second becomes LRU.
        c.access(0, false, 0);
        let evicted = c.fill(2 * set_stride as u64, false, false);
        assert_eq!(evicted, Some(set_stride as u64));
        assert!(c.contains(0));
        assert!(!c.contains(set_stride as u64));
    }

    #[test]
    fn clean_vs_dirty_evictions() {
        let mut c = small();
        let stride = 64 * 8;
        c.fill(0, false, false);
        c.fill(stride, true, false);
        c.fill(2 * stride, false, false); // evicts clean line 0
        c.fill(3 * stride, false, false); // evicts dirty line stride
        assert_eq!(c.stats().clean_evicts, 1);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = small();
        c.fill(0x100, false, false);
        assert!(c.flush_line(0x100));
        assert!(!c.contains(0x100));
        assert!(!c.flush_line(0x100));
        assert_eq!(c.stats().flushes, 1);
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        let mut c = small(); // 4 MSHRs
        for i in 0..4u64 {
            let a = c.access(0x1000 + i * 64, false, 0);
            assert!(!a.mshr_stall);
            c.note_miss_latency(100, 100);
        }
        let a = c.access(0x9000, false, 0);
        assert!(a.mshr_stall);
        // After the misses complete, MSHRs free up.
        let b = c.access(0xA000, false, 200);
        assert!(!b.mshr_stall);
    }

    #[test]
    fn prefetch_tracking() {
        let mut c = small();
        c.fill(0x200, false, true);
        assert_eq!(c.stats().prefetch_fills, 1);
        c.access(0x200, false, 0);
        assert_eq!(c.stats().prefetch_hits, 1);
        // Second hit no longer counts as a prefetch hit.
        c.access(0x200, false, 1);
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    #[test]
    fn occupancy_and_flush_all() {
        let mut c = small();
        c.fill(0, false, false);
        c.fill(64, false, false);
        assert_eq!(c.occupancy(), 2);
        c.flush_all();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn write_sets_dirty() {
        let mut c = small();
        c.fill(0x300, false, false);
        c.access(0x300, true, 0);
        let stride = 64 * 8;
        c.fill(0x300 + stride, false, false);
        c.fill(0x300 + 2 * stride, false, false); // evict the written line eventually
        c.fill(0x300 + 3 * stride, false, false);
        assert!(c.stats().writebacks >= 1);
    }

    /// The per-set reference layout: one `Vec<Line>` per set, with the
    /// lookup, victim and flush loops written against it directly.
    #[derive(Clone)]
    struct RefCache {
        cfg: CacheConfig,
        sets: Vec<Vec<Line>>,
        stats: CacheStats,
        tick: u64,
        mshr_busy_until: Vec<u64>,
    }

    impl RefCache {
        fn new(cfg: CacheConfig) -> Self {
            RefCache {
                sets: vec![vec![INVALID; cfg.ways]; cfg.sets()],
                stats: CacheStats::default(),
                tick: 0,
                mshr_busy_until: Vec::new(),
                cfg,
            }
        }

        fn index(&self, addr: u64) -> (usize, u64) {
            let line_addr = addr / self.cfg.line as u64;
            ((line_addr % self.sets.len() as u64) as usize, line_addr)
        }

        fn contains(&self, addr: u64) -> bool {
            let (set, tag) = self.index(addr);
            self.sets[set].iter().any(|l| l.valid && l.tag == tag)
        }

        fn access(&mut self, addr: u64, write: bool, now: u64) -> CacheAccess {
            self.tick += 1;
            let (set, tag) = self.index(addr);
            if let Some(line) = self.sets[set].iter_mut().find(|l| l.valid && l.tag == tag) {
                line.lru = self.tick;
                if write {
                    line.dirty = true;
                    self.stats.write_hits += 1;
                } else {
                    self.stats.read_hits += 1;
                }
                if line.prefetched {
                    self.stats.prefetch_hits += 1;
                    line.prefetched = false;
                }
                return CacheAccess {
                    hit: true,
                    latency: self.cfg.hit_latency,
                    mshr_stall: false,
                    evicted: None,
                };
            }
            if write {
                self.stats.write_misses += 1;
            } else {
                self.stats.read_misses += 1;
            }
            self.mshr_busy_until.retain(|&t| t > now);
            let mshr_stall = self.mshr_busy_until.len() >= self.cfg.mshrs;
            if mshr_stall {
                self.stats.mshr_full_events += 1;
            } else {
                self.stats.mshr_misses += 1;
            }
            CacheAccess {
                hit: false,
                latency: self.cfg.hit_latency,
                mshr_stall,
                evicted: None,
            }
        }

        fn note_miss_latency(&mut self, latency: u64, done: u64) {
            self.stats.mshr_miss_latency += latency;
            self.mshr_busy_until.push(done);
        }

        fn fill(&mut self, addr: u64, dirty: bool, prefetched: bool) -> Option<u64> {
            self.tick += 1;
            let tick = self.tick;
            let line_bytes = self.cfg.line as u64;
            let (set, tag) = self.index(addr);
            let ways = &mut self.sets[set];
            if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
                line.dirty |= dirty;
                line.lru = tick;
                return None;
            }
            let victim = ways
                .iter_mut()
                .min_by_key(|l| if l.valid { l.lru } else { 0 })
                .expect("cache has ways");
            let evicted = if victim.valid {
                if victim.dirty {
                    self.stats.writebacks += 1;
                } else {
                    self.stats.clean_evicts += 1;
                }
                Some(victim.tag * line_bytes)
            } else {
                None
            };
            if prefetched {
                self.stats.prefetch_fills += 1;
            }
            *victim = Line {
                tag,
                valid: true,
                dirty,
                prefetched,
                lru: tick,
            };
            evicted
        }

        fn flush_line(&mut self, addr: u64) -> bool {
            let (set, tag) = self.index(addr);
            for line in &mut self.sets[set] {
                if line.valid && line.tag == tag {
                    *line = INVALID;
                    self.stats.flushes += 1;
                    return true;
                }
            }
            false
        }

        fn flush_all(&mut self) {
            for set in &mut self.sets {
                for line in set {
                    if line.valid {
                        self.stats.flushes += 1;
                    }
                    *line = INVALID;
                }
            }
        }

        fn occupancy(&self) -> usize {
            self.sets.iter().flatten().filter(|l| l.valid).count()
        }

        /// The word stream `Cache::state` saves, built set by set.
        fn words(&self) -> Vec<u64> {
            let mut words = vec![self.tick];
            for line in self.sets.iter().flatten() {
                let flags =
                    line.valid as u64 | (line.dirty as u64) << 1 | (line.prefetched as u64) << 2;
                words.extend([line.tag, flags, line.lru]);
            }
            let mut mshrs = self.mshr_busy_until.clone();
            Words::Save(&mut words)
                .seq(&mut mshrs, usize::MAX, Words::u64)
                .expect("saves");
            let s = &self.stats;
            words.extend([
                s.read_hits,
                s.read_misses,
                s.write_hits,
                s.write_misses,
                s.clean_evicts,
                s.writebacks,
                s.flushes,
                s.mshr_misses,
                s.mshr_miss_latency,
                s.mshr_full_events,
                s.prefetch_fills,
                s.prefetch_hits,
            ]);
            words
        }
    }

    fn saved_words(c: &Cache) -> Vec<u64> {
        let mut words = Vec::new();
        c.clone()
            .state(&mut Words::Save(&mut words))
            .expect("saves");
        words
    }

    /// (size, line, ways, mshrs): 1-way, sets > ways, sets < ways.
    const GEOMETRIES: [(usize, usize, usize, usize); 3] =
        [(512, 64, 1, 2), (2048, 64, 2, 3), (1024, 32, 8, 4)];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn flat_layout_matches_per_set_reference(
            geometry in 0usize..GEOMETRIES.len(),
            ops in proptest::collection::vec(
                (0u8..6, 0u64..8192, proptest::prelude::any::<bool>(), proptest::prelude::any::<bool>(), 0u64..40),
                1..300,
            ),
        ) {
            let (size, line, ways, mshrs) = GEOMETRIES[geometry];
            let cfg = CacheConfig { size, line, ways, hit_latency: 2, mshrs, write_buffers: 4 };
            let mut flat = Cache::new(cfg.clone());
            let mut reference = RefCache::new(cfg);
            let mut now = 0u64;
            for (i, &(op, addr, a, b, dt)) in ops.iter().enumerate() {
                now += dt;
                match op {
                    0 | 1 => proptest::prop_assert_eq!(
                        flat.access(addr, a, now),
                        reference.access(addr, a, now),
                        "access {}", i
                    ),
                    2 | 3 => proptest::prop_assert_eq!(
                        flat.fill(addr, a, b),
                        reference.fill(addr, a, b),
                        "fill {}", i
                    ),
                    4 => {
                        if a && b {
                            flat.flush_all();
                            reference.flush_all();
                        } else {
                            proptest::prop_assert_eq!(
                                flat.flush_line(addr),
                                reference.flush_line(addr),
                                "flush_line {}", i
                            );
                        }
                    }
                    _ => {
                        flat.note_miss_latency(dt, now + dt);
                        reference.note_miss_latency(dt, now + dt);
                    }
                }
                proptest::prop_assert_eq!(flat.contains(addr), reference.contains(addr), "op {}", i);
                proptest::prop_assert_eq!(flat.occupancy(), reference.occupancy(), "op {}", i);
                proptest::prop_assert_eq!(flat.stats(), &reference.stats, "op {}", i);
                proptest::prop_assert_eq!(saved_words(&flat), reference.words(), "op {}", i);
            }
        }
    }

    #[test]
    fn line_flags_beyond_three_bits_fail_to_load() {
        let c = small();
        // Word 0 is the LRU clock; line 0 is (tag, flags, lru) at words 1..4.
        assert!(crate::reload(&c, Cache::state, 2, 0b1000).is_none());
        assert!(crate::reload(&c, Cache::state, 2, 0b111).is_some());
    }
}
