//! The per-level memo of line compressibility masks.
//!
//! A line's mask (bit *i* set iff word *i* compresses under the level's
//! scheme) changes only when memory changes, yet a miss asks for it several
//! times: the L2 fill, the L1 split of the L2 line, the L1 install, the bus
//! costing of the transfer, and again for a victim's write-back and parking.
//! [`MaskMemo`] answers those repeats from a table instead of re-scanning
//! memory. It is exact, not a cache of guesses: the owner fills an entry
//! from a full scan on first use, patches it on every store
//! ([`MaskMemo::note_store`]) and drops everything when memory is replaced
//! wholesale ([`MaskMemo::clear`]). Debug builds compare every hit with a
//! full scan.
//!
//! The table has the shape of [`MainMemory`]'s page directory: a 1024-slot
//! root of 1024-page leaves, each page holding one entry per line. Pages
//! are allocated when first queried, so the memo has no size to tune and
//! no two lines ever compete for an entry.

use crate::level::scheme_compress_mask;
use ccp_cache::Addr;
use ccp_mem::{MainMemory, Word};
use ccp_schemes::CompressionScheme;

/// Byte shift selecting the 4 KB page of an address.
const PAGE_SHIFT: u32 = 12;

/// Pages per leaf table (low 10 bits of the 20-bit page number).
const LEAF_PAGES: usize = 1024;

/// Leaf tables per root (high 10 bits of the 20-bit page number).
const ROOT_SLOTS: usize = 1024;

/// Entry flag: the low 32 bits hold the line's mask. A zero entry is empty.
const FILLED: u64 = 1 << 32;

/// One entry per line of a page.
type PageEntries = Box<[u64]>;

/// The pages of one 4 MB region.
type Leaf = Box<[Option<PageEntries>]>;

/// Exact compressibility masks of the lines of one level, keyed by line at
/// that level's grain.
#[derive(Debug, Clone)]
pub(crate) struct MaskMemo {
    roots: Vec<Option<Leaf>>,
    /// log2 of the line size in bytes.
    line_shift: u32,
}

impl MaskMemo {
    /// An empty memo for lines of `line_bytes` bytes (a power of two
    /// between one word and one page).
    pub(crate) fn new(line_bytes: u32) -> Self {
        debug_assert!(line_bytes.is_power_of_two() && (4..=1 << PAGE_SHIFT).contains(&line_bytes));
        MaskMemo {
            roots: vec![None; ROOT_SLOTS],
            line_shift: line_bytes.trailing_zeros(),
        }
    }

    fn words(&self) -> u32 {
        1 << (self.line_shift - 2)
    }

    fn lines_per_page(&self) -> usize {
        1 << (PAGE_SHIFT - self.line_shift)
    }

    /// Index of `addr`'s line within its page.
    fn slot(&self, addr: Addr) -> usize {
        (addr as usize >> self.line_shift) & (self.lines_per_page() - 1)
    }

    /// The entry of `addr`'s line, if its page was ever queried.
    fn entry(&self, addr: Addr) -> Option<&u64> {
        let page = (addr >> PAGE_SHIFT) as usize;
        let leaf = self.roots[page / LEAF_PAGES].as_ref()?;
        let entries = leaf[page % LEAF_PAGES].as_ref()?;
        Some(&entries[self.slot(addr)])
    }

    /// The entry of `addr`'s line, allocating its page on first use.
    fn entry_or_alloc(&mut self, addr: Addr) -> &mut u64 {
        let (slot, lines) = (self.slot(addr), self.lines_per_page());
        let page = (addr >> PAGE_SHIFT) as usize;
        let leaf = self.roots[page / LEAF_PAGES]
            .get_or_insert_with(|| vec![None; LEAF_PAGES].into_boxed_slice());
        let entries =
            leaf[page % LEAF_PAGES].get_or_insert_with(|| vec![0; lines].into_boxed_slice());
        &mut entries[slot]
    }

    /// The memoized mask of the line at `base`, if filled.
    pub(crate) fn get(&self, base: Addr) -> Option<u32> {
        self.entry(base)
            .filter(|&&e| e & FILLED != 0)
            // ccp-lint: allow(no-lossy-cast-in-hot-path) — the low 32 bits of an entry are the mask; FILLED sits above them
            .map(|&e| e as u32)
    }

    /// The compressibility mask of the line at `base` under `S`: the memo
    /// entry when filled, otherwise a full scan of `mem` that fills it.
    #[inline]
    pub(crate) fn mask<S: CompressionScheme>(&mut self, mem: &MainMemory, base: Addr) -> u32 {
        let words = self.words();
        let e = self.entry_or_alloc(base);
        if *e & FILLED != 0 {
            // ccp-lint: allow(no-lossy-cast-in-hot-path) — the low 32 bits of an entry are the mask; FILLED sits above them
            let m = *e as u32;
            debug_assert_eq!(
                m,
                scheme_compress_mask::<S>(mem, base, words),
                "stale compressibility memo for line {base:#x}"
            );
            return m;
        }
        let m = scheme_compress_mask::<S>(mem, base, words);
        *e = FILLED | u64::from(m);
        m
    }

    /// Keeps the entry of `addr`'s line exact after `mem` took `value` at
    /// `addr`. A base-oblivious scheme re-tests the one word; a store to the
    /// base word of a line under a [`CompressionScheme::BASE_SENSITIVE`]
    /// scheme empties the entry, so the next query re-classifies the line.
    #[inline]
    pub(crate) fn note_store<S: CompressionScheme>(
        &mut self,
        mem: &MainMemory,
        addr: Addr,
        value: Word,
    ) {
        let base = addr & !((1u32 << self.line_shift) - 1);
        let e = self.entry_or_alloc(addr);
        if *e & FILLED == 0 {
            return;
        }
        if S::BASE_SENSITIVE && addr == base {
            *e = 0;
            return;
        }
        let base_val = if S::BASE_SENSITIVE { mem.read(base) } else { 0 };
        let bit = 1u64 << ((addr - base) >> 2);
        if S::word_compressible(value, addr, base, base_val) {
            *e |= bit;
        } else {
            *e &= !bit;
        }
    }

    /// Empties the memo (memory was replaced or edited from outside).
    pub(crate) fn clear(&mut self) {
        self.roots.fill(None);
    }
}
