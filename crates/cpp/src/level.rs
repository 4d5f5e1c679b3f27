//! Storage mechanics of one compression-cache level.
//!
//! A [`CppLevel`] wraps a set-associative tag array whose per-line payload is
//! the [`CppFlags`] bundle, and implements the primary/affiliated geometry:
//! the affiliated line of a primary line is `<tag,set> XOR 0x1` (paper
//! §3.1), an involution that pairs consecutive lines.
//!
//! The level knows nothing about the rest of the hierarchy; installs return
//! the displaced victim so the caller can route its write-back, and the
//! caller decides when to park, promote, or discard. Compressibility comes
//! from the level's memo of line masks (`CppLevel::line_mask`), which
//! equals a scan of the current values in [`MainMemory`] only while the
//! owning hierarchy reports every store (`CppLevel::note_store`) and every
//! wholesale memory change (`CppLevel::clear_memo`); the free
//! [`scheme_compress_mask`] always scans memory.

use crate::flags::{mask_n, CppFlags};
use crate::memo::MaskMemo;
use ccp_cache::geometry::CacheGeometry;
use ccp_cache::set_assoc::{Evicted, SetAssocCache};
use ccp_cache::Addr;
use ccp_mem::{LineView, MainMemory, Word};
use ccp_schemes::{CompressionScheme, CppScheme};
use std::marker::PhantomData;

/// Bitmask of `S`-compressible words in the `words`-long line at `base`,
/// evaluated against current memory values.
///
/// Lines are aligned and at most a page long, so the common case is a
/// single page-table walk ([`MainMemory::line_view`]) followed by the
/// scheme's slice scan; an untouched page is all zeros, which every scheme
/// must compress fully (the [`CompressionScheme`] contract), hence the
/// zero-view fast path returns a full mask without dispatching.
pub fn scheme_compress_mask<S: CompressionScheme>(mem: &MainMemory, base: Addr, words: u32) -> u32 {
    match mem.line_view(base, words) {
        LineView::Resident(slice) => S::line_mask(slice, base),
        LineView::Zero => mask_n(words),
        // Unaligned run straddling a page: copy it out, then scan the copy.
        LineView::Split => {
            let mut buf = [0; 32];
            let line = &mut buf[..words as usize];
            mem.read_line(base, line);
            S::line_mask(line, base)
        }
    }
}

/// A victim displaced from a level by an install.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CppVictim {
    /// Base address of the displaced primary line.
    pub base: Addr,
    /// Whether it was dirty.
    pub dirty: bool,
    /// Its flags at eviction (`pa` = which words it held, `aa` = prefetched
    /// affiliated words lost with it).
    pub flags: CppFlags,
}

/// One level (L1 or L2) of the compression cache, parameterized by the
/// word-compression scheme `S` (statically dispatched; defaults to the
/// paper's [`CppScheme`] so existing call sites read unchanged).
#[derive(Debug, Clone)]
pub struct CppLevel<S: CompressionScheme = CppScheme> {
    arr: SetAssocCache<CppFlags>,
    memo: MaskMemo,
    _scheme: PhantomData<S>,
}

impl<S: CompressionScheme> CppLevel<S> {
    /// Creates an empty level with the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        CppLevel {
            arr: SetAssocCache::new(geom),
            memo: MaskMemo::new(geom.line_bytes()),
            _scheme: PhantomData,
        }
    }

    /// Bitmask of `S`-compressible words of the line at `base` (aligned to
    /// this level's line), from the level's memo. Equal to
    /// [`scheme_compress_mask`] over `mem` as long as every store reached
    /// [`CppLevel::note_store`] and every other memory change
    /// [`CppLevel::clear_memo`]; debug builds assert that on every hit.
    pub(crate) fn line_mask(&mut self, mem: &MainMemory, base: Addr) -> u32 {
        debug_assert_eq!(self.geometry().line_base(base), base);
        self.memo.mask::<S>(mem, base)
    }

    /// Keeps the memoized mask of `addr`'s line exact after `mem` took
    /// `value` at `addr`.
    pub(crate) fn note_store(&mut self, mem: &MainMemory, addr: Addr, value: Word) {
        self.memo.note_store::<S>(mem, addr, value);
    }

    /// Forgets every memoized mask (memory changed other than by a store
    /// reported to [`CppLevel::note_store`]).
    pub(crate) fn clear_memo(&mut self) {
        self.memo.clear();
    }

    /// The memoized mask of the line at `base`, if one is held (tests
    /// compare it with [`scheme_compress_mask`]).
    pub fn memoized_mask(&self, base: Addr) -> Option<u32> {
        self.memo.get(base)
    }

    /// The level's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        self.arr.geometry()
    }

    /// Line size in words.
    pub fn words(&self) -> u32 {
        self.geometry().line_words()
    }

    /// Base address of `addr`'s affiliated line (an involution).
    pub fn pair_base(&self, addr: Addr) -> Addr {
        self.geometry().affiliated_line_base(addr)
    }

    /// Looks up `addr`'s line at its primary location.
    pub fn lookup_primary(&self, addr: Addr) -> Option<usize> {
        self.arr.lookup(addr)
    }

    /// Looks up the physical line that *could* hold `addr`'s line as
    /// affiliated content — i.e. the primary residence of its pair line.
    /// The caller still checks the `AA` bits for word availability.
    pub fn lookup_affiliated(&self, addr: Addr) -> Option<usize> {
        self.arr.lookup(self.pair_base(addr))
    }

    /// Shared flag access.
    pub fn flags(&self, idx: usize) -> CppFlags {
        *self.arr.extra(idx)
    }

    /// Mutable flag access.
    pub fn flags_mut(&mut self, idx: usize) -> &mut CppFlags {
        self.arr.extra_mut(idx)
    }

    /// Whether line `idx` is dirty.
    pub fn dirty(&self, idx: usize) -> bool {
        self.arr.is_dirty(idx)
    }

    /// Marks line `idx` dirty.
    pub fn set_dirty(&mut self, idx: usize) {
        self.arr.set_dirty(idx);
    }

    /// Base address of the valid line at `idx`.
    pub fn base_of(&self, idx: usize) -> Addr {
        self.arr.base_of(idx)
    }

    /// LRU-touches line `idx`.
    pub fn touch(&mut self, idx: usize) {
        self.arr.touch(idx);
    }

    /// Installs `base`'s line as primary with the given flags, displacing
    /// the victim way. Also clears any affiliated copy of `base` (the
    /// one-copy rule): an installed primary supersedes it.
    ///
    /// Returns the displaced victim, if any; the caller must write it back
    /// (if dirty) and may then [`CppLevel::park`] it.
    pub fn install_primary(
        &mut self,
        base: Addr,
        flags: CppFlags,
        dirty: bool,
    ) -> Option<CppVictim> {
        debug_assert_eq!(self.geometry().line_base(base), base);
        debug_assert!(flags.broken_rules(self.words()).is_empty(), "{flags:x?}");
        // One-copy rule: drop the affiliated copy of this line, if present.
        if let Some(aidx) = self.lookup_affiliated(base) {
            self.arr.extra_mut(aidx).aa = 0;
        }
        let (evicted, _idx) = self.arr.insert(base, dirty, flags);
        evicted.map(|Evicted { base, dirty, extra }| CppVictim {
            base,
            dirty,
            flags: extra,
        })
    }

    /// Parks the compressible present words of an evicted line into its
    /// affiliated location, if its pair line is resident as primary there.
    /// Parked copies are clean (the caller has already written back a dirty
    /// victim). Returns the number of words parked.
    pub fn park(&mut self, mem: &MainMemory, victim_base: Addr, victim_pa: u32) -> u32 {
        let Some(pidx) = self.arr.lookup(self.pair_base(victim_base)) else {
            return 0;
        };
        let host = *self.arr.extra(pidx);
        debug_assert_eq!(
            host.aa, 0,
            "one-copy rule: victim {victim_base:#x} was both primary and affiliated"
        );
        let comp = self.line_mask(mem, victim_base);
        let parked = victim_pa & comp & host.affiliated_capacity(self.words());
        if parked != 0 {
            self.arr.extra_mut(pidx).aa = parked;
        }
        parked.count_ones()
    }

    /// Removes and returns the affiliated copy of `base`'s line (its `AA`
    /// mask in the pair's physical line), e.g. ahead of a promotion.
    pub fn take_affiliated(&mut self, base: Addr) -> u32 {
        if let Some(aidx) = self.lookup_affiliated(base) {
            let aa = self.arr.extra(aidx).aa;
            self.arr.extra_mut(aidx).aa = 0;
            aa
        } else {
            0
        }
    }

    /// Applies a store's compressibility effect to primary word `off` of
    /// line `idx` (which must have `PA[off]` set): updates `VCP` and evicts
    /// conflicting affiliated words. Returns the number of affiliated words
    /// evicted by the change (the paper's §3.3 hazard).
    pub fn update_primary_word(
        &mut self,
        idx: usize,
        off: u32,
        now_compressible: bool,
        evict_whole_affiliated_line: bool,
    ) -> u32 {
        let bit = 1u32 << off;
        let f = self.arr.extra_mut(idx);
        debug_assert!(f.pa & bit != 0, "updating an absent primary word");
        if now_compressible {
            f.vcp |= bit;
            return 0;
        }
        f.vcp &= !bit;
        if f.aa & bit == 0 {
            return 0;
        }
        // The freed half-slot is reclaimed by the grown primary word; the
        // affiliated word (priority to primary, paper §3.3) is evicted.

        if evict_whole_affiliated_line {
            let n = f.aa.count_ones();
            f.aa = 0;
            n
        } else {
            f.aa &= !bit;
            1
        }
    }

    /// Re-derives the whole line's `VCP` from current memory values and
    /// evicts affiliated words left without a legal half-slot. The
    /// base-sensitive analogue of [`CppLevel::update_primary_word`]: a store
    /// to word 0 under a scheme with
    /// [`CompressionScheme::BASE_SENSITIVE`]` = true` re-classifies every
    /// word of the line, not just the stored one. Returns the number of
    /// affiliated words evicted.
    pub fn refresh_primary_flags(
        &mut self,
        mem: &MainMemory,
        idx: usize,
        evict_whole_affiliated_line: bool,
    ) -> u32 {
        let base = self.base_of(idx);
        let words = self.words();
        let comp = self.line_mask(mem, base);
        let f = self.arr.extra_mut(idx);
        f.vcp = f.pa & comp;
        let conflict = f.aa & !f.affiliated_capacity(words);
        if conflict == 0 {
            return 0;
        }
        if evict_whole_affiliated_line {
            let n = f.aa.count_ones();
            f.aa = 0;
            n
        } else {
            f.aa &= !conflict;
            conflict.count_ones()
        }
    }

    /// Merges newly arrived primary words into an already-resident primary
    /// line: sets `PA`, recomputes `VCP` from current values, and evicts
    /// affiliated words whose slot is claimed by an incompressible arrival.
    /// Returns the number of affiliated words displaced.
    pub fn merge_primary_words(&mut self, mem: &MainMemory, idx: usize, new_mask: u32) -> u32 {
        let base = self.base_of(idx);
        let comp = self.line_mask(mem, base);
        let f = self.arr.extra_mut(idx);
        f.pa |= new_mask;
        f.vcp = (f.vcp & !new_mask) | (comp & new_mask);
        let conflict = f.aa & new_mask & !f.vcp;
        f.aa &= !conflict;
        conflict.count_ones()
    }

    /// Attempts to add prefetched affiliated words (`aff_mask`, in the pair
    /// line's word coordinates) to primary line `idx`. Bits without a free
    /// half-slot are dropped. Returns the mask actually stored.
    pub fn add_affiliated_words(&mut self, idx: usize, aff_mask: u32) -> u32 {
        let words = self.words();
        let f = self.arr.extra_mut(idx);
        let add = aff_mask & f.affiliated_capacity(words);
        f.aa |= add;
        add
    }

    /// Invalidates the primary line at `idx`, returning its victim record.
    pub fn invalidate(&mut self, idx: usize) -> Option<CppVictim> {
        self.arr
            .invalidate(idx)
            .map(|Evicted { base, dirty, extra }| CppVictim {
                base,
                dirty,
                flags: extra,
            })
    }

    /// Index and base address of every valid primary line, in physical-line
    /// order — the enumeration the fault injector and invariant checker walk.
    pub fn valid_lines(&self) -> Vec<(usize, Addr)> {
        self.arr
            .iter_valid()
            .map(|idx| (idx, self.arr.base_of(idx)))
            .collect()
    }

    /// Number of valid primary lines (tests).
    pub fn valid_count(&self) -> usize {
        self.arr.valid_count()
    }

    /// Full-line availability mask for the level's line size.
    pub fn full_mask(&self) -> u32 {
        mask_n(self.words())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InvariantChecker;

    fn l1() -> CppLevel {
        CppLevel::new(CacheGeometry::new(8 * 1024, 1, 64))
    }

    fn mem_with(vals: &[(Addr, u32)]) -> MainMemory {
        let mut m = MainMemory::new();
        for &(a, v) in vals {
            m.write(a, v);
        }
        m
    }

    #[test]
    fn pair_base_is_involution() {
        let l = l1();
        for base in [0x0000u32, 0x0040, 0x1_2340, 0xFFFF_FF80] {
            let b = l.geometry().line_base(base);
            assert_eq!(l.pair_base(l.pair_base(b)), b);
            assert_ne!(l.pair_base(b), b);
        }
    }

    #[test]
    fn compress_mask_reflects_memory() {
        let m = mem_with(&[(0x1000, 5), (0x1004, 0xDEAD_BEEF), (0x1008, 0x0000_1234)]);
        // Word 3 is untouched (0 → compressible).
        assert_eq!(
            scheme_compress_mask::<CppScheme>(&m, 0x1000, 4) & 0b1111,
            0b1101
        );
    }

    #[test]
    fn compress_mask_of_a_page_straddling_run_uses_its_word_zero() {
        // Words 0..=7 sit in page 0x4000, words 8..=15 in page 0x5000. Under
        // BDI word 0 is the base and no immediate, word 1 is incompressible,
        // word 2 compresses only as a delta from word 0, word 8 is
        // incompressible and every other word is a zero immediate.
        let base = 0x4FE0;
        let m = mem_with(&[
            (base, 0x7000_0000),
            (base + 4, 0x1234_5678),
            (base + 8, 0x7000_0010),
            (0x5000, 0x9999_9999),
        ]);
        assert!(matches!(m.line_view(base, 16), LineView::Split));
        assert_eq!(
            scheme_compress_mask::<ccp_schemes::BdiScheme>(&m, base, 16),
            0xFFFF & !0b1_0000_0011
        );
    }

    #[test]
    fn install_then_lookup_primary() {
        let mut l = l1();
        let f = CppFlags::full_primary(16, 0, 0);
        assert!(l.install_primary(0x2000, f, false).is_none());
        assert!(l.lookup_primary(0x2000).is_some());
        assert!(l.lookup_primary(0x2040).is_none());
        // 0x2040's affiliated location is 0x2000's physical line.
        assert!(l.lookup_affiliated(0x2040).is_some());
    }

    #[test]
    fn install_clears_stale_affiliated_copy() {
        let mut l = l1();
        let mem = MainMemory::new();
        // 0x2000 primary hosts affiliated words of 0x2040.
        let mut f = CppFlags::full_primary(16, 0xFFFF, 0);
        f.aa = 0x000F;
        l.install_primary(0x2000, f, false).unwrap_or(CppVictim {
            base: 0,
            dirty: false,
            flags: CppFlags::empty(),
        });
        // Now 0x2040 arrives as primary: its affiliated copy must vanish.
        l.install_primary(0x2040, CppFlags::full_primary(16, 0, 0), false);
        let host = l.lookup_primary(0x2000).unwrap();
        assert_eq!(l.flags(host).aa, 0);
        assert!(InvariantChecker::check_level(&l, &mem, true, "L1").is_empty());
    }

    #[test]
    fn park_uses_free_slots_only() {
        let mut l = l1();
        let mem = MainMemory::new(); // all zeros → everything compressible
                                     // Host: 0x2000 primary, words 0..4 compressed, 4..16 "incompressible"
                                     // (simulated via flags; memory says compressible but VCP is the
                                     // stored format, which may be conservative).
        let f = CppFlags::full_primary(16, 0x000F, 0);
        l.install_primary(0x2000, f, false);
        // Victim 0x2040 (pair of 0x2000) parks: only slots 0..4 accept.
        let parked = l.park(&mem, 0x2040, 0xFFFF);
        assert_eq!(parked, 4);
        let host = l.lookup_primary(0x2000).unwrap();
        assert_eq!(l.flags(host).aa, 0x000F);
    }

    #[test]
    fn park_without_resident_pair_is_noop() {
        let mut l = l1();
        let mem = MainMemory::new();
        assert_eq!(l.park(&mem, 0x2040, 0xFFFF), 0);
    }

    #[test]
    fn park_skips_incompressible_victim_words() {
        let mut l = l1();
        let mut mem = MainMemory::new();
        mem.write(0x2040, 0xDEAD_BEEF); // word 0 of victim incompressible
        let f = CppFlags::full_primary(16, 0xFFFF, 0);
        l.install_primary(0x2000, f, false);
        let parked = l.park(&mem, 0x2040, 0x0003);
        assert_eq!(parked, 1, "only word 1 parks");
        let host = l.lookup_primary(0x2000).unwrap();
        assert_eq!(l.flags(host).aa, 0x0002);
        assert!(InvariantChecker::check_level(&l, &mem, true, "L1").is_empty());
    }

    #[test]
    fn take_affiliated_clears_and_returns() {
        let mut l = l1();
        let mut f = CppFlags::full_primary(16, 0xFFFF, 0);
        f.aa = 0x00F0;
        l.install_primary(0x2000, f, false);
        assert_eq!(l.take_affiliated(0x2040), 0x00F0);
        assert_eq!(l.take_affiliated(0x2040), 0);
    }

    #[test]
    fn update_primary_word_evicts_conflicting_affiliated_word() {
        let mut l = l1();
        let mut f = CppFlags::full_primary(16, 0xFFFF, 0);
        f.aa = 0b0110;
        l.install_primary(0x2000, f, false);
        let idx = l.lookup_primary(0x2000).unwrap();
        // Word 1 grows incompressible: its AA word is evicted, word 2's stays.
        let evicted = l.update_primary_word(idx, 1, false, false);
        assert_eq!(evicted, 1);
        let f = l.flags(idx);
        assert_eq!(f.aa, 0b0100);
        assert!(!f.vcp_bit(1));
    }

    #[test]
    fn update_primary_word_whole_line_policy() {
        let mut l = l1();
        let mut f = CppFlags::full_primary(16, 0xFFFF, 0);
        f.aa = 0b0110;
        l.install_primary(0x2000, f, false);
        let idx = l.lookup_primary(0x2000).unwrap();
        let evicted = l.update_primary_word(idx, 1, false, true);
        assert_eq!(evicted, 2, "whole affiliated line evicted");
        assert_eq!(l.flags(idx).aa, 0);
    }

    #[test]
    fn update_primary_word_compressible_is_free() {
        let mut l = l1();
        let f = CppFlags::full_primary(16, 0, 0);
        l.install_primary(0x2000, f, false);
        let idx = l.lookup_primary(0x2000).unwrap();
        assert_eq!(l.update_primary_word(idx, 3, true, false), 0);
        assert!(l.flags(idx).vcp_bit(3));
    }

    #[test]
    fn merge_primary_words_resolves_conflicts() {
        let mut l = l1();
        let mut mem = MainMemory::new();
        mem.write(0x2004, 0xDEAD_BEEF); // word 1 incompressible
        let f = CppFlags {
            pa: 0b0001,
            vcp: 0b0001,
            aa: 0b0010, // affiliated word in then-empty slot 1
        };
        assert!(f.broken_rules(16).is_empty());
        l.install_primary(0x2000, f, false);
        let idx = l.lookup_primary(0x2000).unwrap();
        // Words 1 and 2 arrive; word 1 is incompressible and claims slot 1.
        let displaced = l.merge_primary_words(&mem, idx, 0b0110);
        assert_eq!(displaced, 1);
        let f = l.flags(idx);
        assert_eq!(f.pa, 0b0111);
        assert!(!f.vcp_bit(1));
        assert!(f.vcp_bit(2), "untouched memory word is compressible");
        assert_eq!(f.aa, 0);
        assert!(InvariantChecker::check_level(&l, &mem, true, "L1").is_empty());
    }

    #[test]
    fn victim_returned_with_flags() {
        let mut l = l1();
        let f = CppFlags::full_primary(16, 0x00FF, 0x00FF);
        l.install_primary(0x2000, f, true);
        let v = l
            .install_primary(0x2000 + 8 * 1024, CppFlags::full_primary(16, 0, 0), false)
            .expect("direct-mapped conflict");
        assert_eq!(v.base, 0x2000);
        assert!(v.dirty);
        assert_eq!(v.flags.aa, 0x00FF);
    }
}
