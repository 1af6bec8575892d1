//! Backing store: sparse paged physical memory with a privileged (kernel)
//! range and Rowhammer bit-flip application.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use evax_dram::state::Words;
use evax_dram::BitFlip;

const PAGE_SIZE: u64 = 4096;

/// Multiplicative hasher for page indices. Page lookups are on the hot
/// path of every load/store (functional and detailed), where SipHash
/// dominates; page indices are already well-distributed small integers, so
/// a single multiply-xorshift is collision-safe enough and much cheaper.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
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

    fn finish(&self) -> u64 {
        self.0
    }
}

type PageIndex = HashMap<u64, u32, BuildHasherDefault<PageHasher>>;

/// Sentinel page number for the empty last-lookup cache (never a real page:
/// it would require an address above `u64::MAX`).
const NO_PAGE: u64 = u64::MAX;

/// Sparse byte-addressable memory. Reads of untouched memory return a
/// deterministic address-derived pattern (so "secrets" exist everywhere
/// without initialization).
///
/// Pages live in an arena indexed by a hash map, with a one-entry
/// last-written-page cache: stores stream through the same page, so the
/// mutating path usually resolves with a single compare instead of a hash
/// probe. (The cache is a plain field, not interior mutability, so shared
/// references stay `Sync`; the read path just takes the cheap hash probe.)
#[derive(Debug, Clone)]
pub struct Memory {
    pages: Vec<Box<[u8]>>,
    index: PageIndex,
    last: (u64, u32),
    kernel_base: u64,
}

impl Default for Memory {
    fn default() -> Self {
        Memory {
            pages: Vec::new(),
            index: PageIndex::default(),
            last: (NO_PAGE, 0),
            kernel_base: 0,
        }
    }
}

impl Memory {
    /// Creates memory where addresses at or above `kernel_base` are
    /// privileged.
    pub fn new(kernel_base: u64) -> Self {
        Memory {
            kernel_base,
            ..Memory::default()
        }
    }

    /// `true` if a user-mode access to `addr` must fault.
    pub fn is_privileged(&self, addr: u64) -> bool {
        addr >= self.kernel_base
    }

    fn background_byte(addr: u64) -> u8 {
        // Deterministic "uninitialized" contents.
        let mut h = addr.wrapping_mul(0x2545_F491_4F6C_DD1D);
        h ^= h >> 29;
        (h & 0xFF) as u8
    }

    /// Arena slot of a materialized page (consults the last-written cache;
    /// cannot refresh it through a shared reference).
    fn lookup(&self, page: u64) -> Option<u32> {
        let (last_page, last_idx) = self.last;
        if last_page == page {
            return Some(last_idx);
        }
        self.index.get(&page).copied()
    }

    fn page_mut(&mut self, page: u64) -> &mut [u8] {
        let idx = match self.lookup(page) {
            Some(idx) => idx,
            None => {
                let base = page * PAGE_SIZE;
                let bytes: Box<[u8]> = (0..PAGE_SIZE)
                    .map(|i| Self::background_byte(base + i))
                    .collect();
                let idx = u32::try_from(self.pages.len()).expect("page arena overflow");
                self.pages.push(bytes);
                self.index.insert(page, idx);
                idx
            }
        };
        self.last = (page, idx);
        &mut self.pages[idx as usize]
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.lookup(addr / PAGE_SIZE) {
            Some(idx) => self.pages[idx as usize][(addr % PAGE_SIZE) as usize],
            None => Self::background_byte(addr),
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let off = (addr % PAGE_SIZE) as usize;
        self.page_mut(addr / PAGE_SIZE)[off] = value;
    }

    /// Reads a little-endian `u64`. Single page lookup when the word does
    /// not straddle a page boundary (the overwhelmingly common case).
    pub fn read_u64(&self, addr: u64) -> u64 {
        let off = (addr % PAGE_SIZE) as usize;
        if off <= PAGE_SIZE as usize - 8 {
            match self.lookup(addr / PAGE_SIZE) {
                Some(idx) => {
                    let mut word = [0u8; 8];
                    word.copy_from_slice(&self.pages[idx as usize][off..off + 8]);
                    return u64::from_le_bytes(word);
                }
                None => {
                    let mut v = 0u64;
                    for i in 0..8 {
                        v |= (Self::background_byte(addr.wrapping_add(i)) as u64) << (8 * i);
                    }
                    return v;
                }
            }
        }
        let mut v = 0u64;
        for i in 0..8 {
            v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Writes a little-endian `u64`. Single page lookup when the word does
    /// not straddle a page boundary.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let off = (addr % PAGE_SIZE) as usize;
        if off <= PAGE_SIZE as usize - 8 {
            let page = self.page_mut(addr / PAGE_SIZE);
            page[off..off + 8].copy_from_slice(&value.to_le_bytes());
            return;
        }
        for i in 0..8 {
            self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Applies a Rowhammer bit flip at the physical location the DRAM model
    /// reported, given the mapping function from (bank, row, byte) to a
    /// physical address. Returns the affected address.
    pub fn apply_flip(&mut self, flip: BitFlip, addr_of: impl Fn(usize, u64) -> u64) -> u64 {
        let addr = addr_of(flip.bank, flip.row) + flip.byte;
        let old = self.read_u8(addr);
        self.write_u8(addr, old ^ (1 << flip.bit));
        addr
    }

    /// Visits every materialized page, sorted by page index so the words do
    /// not depend on `HashMap` iteration order (see [`evax_dram::state`]).
    /// Untouched pages are omitted — they regenerate from the deterministic
    /// background pattern on demand. Loading replaces all pages.
    pub(crate) fn state(&mut self, w: &mut Words<'_>) -> Option<()> {
        let mut pages: Vec<u64> = self.index.keys().copied().collect();
        pages.sort_unstable();
        let n = w.prefix(pages.len(), usize::MAX)?;
        if w.loading() {
            *self = Memory::new(self.kernel_base);
            pages = vec![0; n];
        }
        for mut page in pages {
            w.u64(&mut page)?;
            let arena = &mut self.pages;
            let idx = *self.index.entry(page).or_insert_with(|| {
                arena.push(vec![0; PAGE_SIZE as usize].into());
                u32::try_from(arena.len() - 1).expect("page arena overflow")
            });
            for chunk in self.pages[idx as usize].chunks_exact_mut(8) {
                let mut word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                w.u64(&mut word)?;
                chunk.copy_from_slice(&word.to_le_bytes());
            }
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut m = Memory::new(u64::MAX);
        m.write_u64(0x1234, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.read_u64(0x1234), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn background_is_deterministic_nonzero() {
        let m = Memory::new(u64::MAX);
        let a = m.read_u64(0xFFFF_0000_1000);
        let b = m.read_u64(0xFFFF_0000_1000);
        assert_eq!(a, b);
        assert_ne!(a, 0, "kernel 'secrets' should be nonzero");
    }

    #[test]
    fn cross_page_u64() {
        let mut m = Memory::new(u64::MAX);
        m.write_u64(PAGE_SIZE - 4, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u64(PAGE_SIZE - 4), 0x0102_0304_0506_0708);
    }

    #[test]
    fn privileged_check() {
        let m = Memory::new(0x1000);
        assert!(!m.is_privileged(0xFFF));
        assert!(m.is_privileged(0x1000));
    }

    #[test]
    fn flip_toggles_one_bit() {
        let mut m = Memory::new(u64::MAX);
        m.write_u8(100, 0b0000_0000);
        let flip = BitFlip {
            bank: 0,
            row: 0,
            byte: 100,
            bit: 3,
        };
        let addr = m.apply_flip(flip, |_, _| 0);
        assert_eq!(addr, 100);
        assert_eq!(m.read_u8(100), 0b0000_1000);
    }

    #[test]
    fn page_count_beyond_the_stream_fails_to_load() {
        let mut m = Memory::new(u64::MAX);
        m.write_u8(0x234, 7);
        // Word 0 is the page count, word 1 the first page's index.
        let back = crate::reload(&m, Memory::state, 1, 1).expect("page index rewritten");
        assert_eq!(back.read_u8(0x1234), 7, "page 1 now holds the bytes");
        assert!(crate::reload(&m, Memory::state, 0, u64::MAX).is_none());
        assert!(
            crate::reload(&m, Memory::state, 0, 2).is_none(),
            "truncated"
        );
    }
}
