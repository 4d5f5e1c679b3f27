#![warn(missing_docs)]
#![forbid(unsafe_code)]
// No panic outside tests in any crate the served binaries link (DESIGN.md §9).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![cfg_attr(
    not(test),
    deny(clippy::unreachable, clippy::todo, clippy::unimplemented)
)]

//! Functional main-memory model and bus-traffic accounting.
//!
//! The simulator follows the SimpleScalar methodology the paper used: caches
//! model *timing and metadata* (tags, per-word availability/compressibility
//! flags) while the architectural data image lives in one word-addressable
//! [`MainMemory`]. Every compressibility decision the cache designs make is
//! computed from the **real values** stored here, so words flip between
//! compressible and incompressible exactly as the simulated program writes
//! them.
//!
//! Storage is a two-level radix table over 4 KB pages (1024-entry root →
//! 1024-page leaves), so the per-word `read`/`write` on the simulation hot
//! path is two array indexations instead of a hash lookup, and a whole
//! cache line can be scanned through [`MainMemory::line_view`] with a
//! single page walk (lines are power-of-two aligned and ≤ 4 KB, so an
//! aligned line never crosses a page).
//!
//! [`TrafficMeter`] counts bus transfers in 16-bit half-word units so that a
//! compressed bus (one half-word per compressible word) and a conventional
//! bus (two half-words per word) are measured on the same scale. It and
//! every other stats struct are declared through [`counters!`], which
//! derives the [`Counters`] visitor their codecs and merges walk.

pub mod alloc;
pub mod counters;
pub mod traffic;

pub use alloc::ChunkAllocator;
pub use counters::{add_counters, Counters};
pub use traffic::TrafficMeter;

/// A 32-bit machine word.
pub type Word = u32;

/// A 32-bit byte address.
pub type Addr = u32;

/// Words per backing page (4 KB pages).
const PAGE_WORDS: usize = 1024;

/// Byte shift selecting the page number of an address.
const PAGE_SHIFT: u32 = 12;

/// Pages per leaf table (low 10 bits of the 20-bit page number).
const LEAF_PAGES: usize = 1024;

/// Leaf tables per root (high 10 bits of the 20-bit page number).
const ROOT_SLOTS: usize = 1024;

type Page = Box<[Word; PAGE_WORDS]>;

/// Second radix level: the 1024 pages of one 4 MB region.
#[derive(Debug, Clone)]
struct Leaf {
    pages: [Option<Page>; LEAF_PAGES],
}

impl Default for Leaf {
    fn default() -> Self {
        Leaf {
            pages: std::array::from_fn(|_| None),
        }
    }
}

/// A zero-copy view of a word run returned by [`MainMemory::line_view`].
#[derive(Debug)]
pub enum LineView<'a> {
    /// The run lies within one resident page.
    Resident(&'a [Word]),
    /// The run lies within one page that was never materialized: all words
    /// read as zero.
    Zero,
    /// The run crosses a page boundary (only possible for runs that are not
    /// aligned to their own size); the caller must fall back to per-word
    /// reads.
    Split,
}

/// Sparse, word-addressable 32-bit memory.
///
/// Pages materialize on first write; reads of untouched memory return zero
/// (which is also the most compressible value, matching the zero-filled
/// pages a real OS would hand out).
#[derive(Debug, Clone)]
pub struct MainMemory {
    roots: Vec<Option<Box<Leaf>>>,
    resident: usize,
}

impl Default for MainMemory {
    fn default() -> Self {
        MainMemory {
            roots: vec![None; ROOT_SLOTS],
            resident: 0,
        }
    }
}

impl MainMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the word at byte address `addr` (must be word-aligned).
    #[inline]
    pub fn read(&self, addr: Addr) -> Word {
        debug_assert_eq!(addr & 0x3, 0, "unaligned word read at {addr:#x}");
        let page = (addr >> PAGE_SHIFT) as usize;
        match &self.roots[page / LEAF_PAGES] {
            Some(leaf) => match &leaf.pages[page % LEAF_PAGES] {
                Some(p) => p[(addr as usize >> 2) % PAGE_WORDS],
                None => 0,
            },
            None => 0,
        }
    }

    /// Writes the word at byte address `addr` (must be word-aligned).
    #[inline]
    pub fn write(&mut self, addr: Addr, value: Word) {
        debug_assert_eq!(addr & 0x3, 0, "unaligned word write at {addr:#x}");
        let page = (addr >> PAGE_SHIFT) as usize;
        let slot = (addr as usize >> 2) % PAGE_WORDS;
        let root = &mut self.roots[page / LEAF_PAGES];
        if let Some(leaf) = root {
            if let Some(p) = &mut leaf.pages[page % LEAF_PAGES] {
                p[slot] = value;
                return;
            }
        }
        // Avoid materializing a page just to store a zero.
        if value == 0 {
            return;
        }
        let leaf = root.get_or_insert_with(Box::default);
        let mut p: Page = Box::new([0u32; PAGE_WORDS]);
        p[slot] = value;
        leaf.pages[page % LEAF_PAGES] = Some(p);
        self.resident += 1;
    }

    /// A zero-copy view of the `words` consecutive words starting at `base`
    /// (word-aligned).
    ///
    /// Cache lines are power-of-two sized, line-aligned, and at most 4 KB,
    /// so a line's run never crosses a page and the whole line can be
    /// classified from one slice without further table walks.
    #[inline]
    pub fn line_view(&self, base: Addr, words: u32) -> LineView<'_> {
        debug_assert_eq!(base & 0x3, 0, "unaligned line view at {base:#x}");
        let start = (base as usize >> 2) % PAGE_WORDS;
        if start + words as usize > PAGE_WORDS {
            return LineView::Split;
        }
        let page = (base >> PAGE_SHIFT) as usize;
        match &self.roots[page / LEAF_PAGES] {
            Some(leaf) => match &leaf.pages[page % LEAF_PAGES] {
                Some(p) => LineView::Resident(&p[start..start + words as usize]),
                None => LineView::Zero,
            },
            None => LineView::Zero,
        }
    }

    /// Reads `buf.len()` consecutive words starting at `base` (word-aligned).
    pub fn read_line(&self, base: Addr, buf: &mut [Word]) {
        for (i, w) in buf.iter_mut().enumerate() {
            *w = self.read(base.wrapping_add((i as u32) * 4));
        }
    }

    /// Writes `buf` as consecutive words starting at `base` (word-aligned).
    pub fn write_line(&mut self, base: Addr, buf: &[Word]) {
        for (i, w) in buf.iter().enumerate() {
            self.write(base.wrapping_add((i as u32) * 4), *w);
        }
    }

    /// Number of 4 KB pages currently materialized.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Sorted list of resident page numbers (page = byte address >> 12).
    pub fn page_numbers(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.resident);
        for (r, leaf) in self.roots.iter().enumerate() {
            let Some(leaf) = leaf else { continue };
            for (l, page) in leaf.pages.iter().enumerate() {
                if page.is_some() {
                    v.push((r * LEAF_PAGES + l) as u32);
                }
            }
        }
        v
    }

    /// The 1024 words of resident page `page`, if materialized.
    pub fn page_words(&self, page: u32) -> Option<&[Word; 1024]> {
        let page = page as usize;
        self.roots[page / LEAF_PAGES]
            .as_ref()
            .and_then(|leaf| leaf.pages[page % LEAF_PAGES].as_ref())
            .map(|b| &**b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_of_untouched_memory_are_zero() {
        let m = MainMemory::new();
        assert_eq!(m.read(0), 0);
        assert_eq!(m.read(0xFFFF_FFFC), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn write_then_read_same_word() {
        let mut m = MainMemory::new();
        m.write(0x1000, 0xDEAD_BEEF);
        assert_eq!(m.read(0x1000), 0xDEAD_BEEF);
        assert_eq!(m.read(0x1004), 0);
    }

    #[test]
    fn zero_writes_do_not_materialize_pages() {
        let mut m = MainMemory::new();
        m.write(0x2000, 0);
        assert_eq!(m.resident_pages(), 0);
        m.write(0x2000, 7);
        assert_eq!(m.resident_pages(), 1);
        m.write(0x2000, 0);
        assert_eq!(m.read(0x2000), 0);
        assert_eq!(m.resident_pages(), 1, "page stays once materialized");
    }

    #[test]
    fn adjacent_pages_are_independent() {
        let mut m = MainMemory::new();
        m.write(0x0FFC, 1); // last word of page 0
        m.write(0x1000, 2); // first word of page 1
        assert_eq!(m.read(0x0FFC), 1);
        assert_eq!(m.read(0x1000), 2);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn line_read_write_roundtrip() {
        let mut m = MainMemory::new();
        let line: Vec<u32> = (0..16).map(|i| i * 0x0101_0101).collect();
        m.write_line(0x4000_0FC0, &line);
        let mut out = vec![0u32; 16];
        m.read_line(0x4000_0FC0, &mut out);
        assert_eq!(out, line);
    }

    #[test]
    fn line_ops_cross_page_boundary() {
        let mut m = MainMemory::new();
        let line: Vec<u32> = (100..116).collect();
        // 64-byte line straddling the 0x5000 page boundary.
        m.write_line(0x4FE0, &line);
        let mut out = vec![0u32; 16];
        m.read_line(0x4FE0, &mut out);
        assert_eq!(out, line);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn high_address_space_works() {
        let mut m = MainMemory::new();
        m.write(0xFFFF_FFFC, 0xABCD_0123);
        assert_eq!(m.read(0xFFFF_FFFC), 0xABCD_0123);
    }

    #[test]
    fn overwrite_replaces_value() {
        let mut m = MainMemory::new();
        m.write(0x8000, 1);
        m.write(0x8000, 2);
        assert_eq!(m.read(0x8000), 2);
    }

    #[test]
    fn page_iteration_roundtrip() {
        let mut m = MainMemory::new();
        m.write(0x1004, 7);
        m.write(0x5_3000, 9);
        let pages = m.page_numbers();
        assert_eq!(pages, vec![0x1, 0x53]);
        let p = m.page_words(0x1).unwrap();
        assert_eq!(p[1], 7);
        let mut m2 = MainMemory::new();
        for pg in pages {
            for (i, &w) in m.page_words(pg).unwrap().iter().enumerate() {
                m2.write(pg << 12 | (i as u32) << 2, w);
            }
        }
        assert_eq!(m2.read(0x1004), 7);
        assert_eq!(m2.read(0x5_3000), 9);
        assert_eq!(m2.page_words(0x99), None);
        assert_eq!(m2.resident_pages(), 2);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = MainMemory::new();
        a.write(0x3000, 9);
        let b = a.clone();
        a.write(0x3000, 10);
        assert_eq!(b.read(0x3000), 9);
        assert_eq!(a.read(0x3000), 10);
    }

    #[test]
    fn line_view_matches_per_word_reads() {
        let mut m = MainMemory::new();
        for i in 0..16u32 {
            m.write(0x7_2000 + i * 4, i * 3 + 1);
        }
        match m.line_view(0x7_2000, 16) {
            LineView::Resident(s) => {
                assert_eq!(s.len(), 16);
                for (i, &w) in s.iter().enumerate() {
                    assert_eq!(w, m.read(0x7_2000 + (i as u32) * 4));
                }
            }
            other => panic!("expected resident view, got {other:?}"),
        }
    }

    #[test]
    fn line_view_of_untouched_page_is_zero() {
        let m = MainMemory::new();
        assert!(matches!(m.line_view(0x9_0000, 32), LineView::Zero));
    }

    #[test]
    fn line_view_refuses_page_straddle() {
        let mut m = MainMemory::new();
        m.write(0x4FE0, 5);
        assert!(matches!(m.line_view(0x4FE0, 16), LineView::Split));
    }

    #[test]
    fn line_view_spans_whole_page() {
        let mut m = MainMemory::new();
        m.write(0x3000, 1);
        m.write(0x3FFC, 2);
        match m.line_view(0x3000, 1024) {
            LineView::Resident(s) => {
                assert_eq!(s[0], 1);
                assert_eq!(s[1023], 2);
            }
            other => panic!("expected resident view, got {other:?}"),
        }
    }
}
