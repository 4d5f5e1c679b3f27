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
// A truncating cast in the compression path must say why it is lossless.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

//! **CPP — Compression-enabled Partial cache line Prefetching**, the
//! contribution of *Enabling Partial Cache Line Prefetching Through Data
//! Compression* (Zhang & Gupta, ICPP 2003).
//!
//! Both cache levels store compressible words in 16 bits and use the freed
//! half-word slots to hold, at each word offset, the compressible word at
//! the same offset of the line's **affiliated** line (`<tag,set> XOR 0x1`,
//! i.e. the neighbouring line — a next-line prefetch that consumes *no*
//! extra memory bandwidth and no prefetch buffer):
//!
//! * **CPU–L1** (paper §3.3): reads probe the primary and affiliated
//!   locations in parallel; an affiliated hit costs one extra cycle. A write
//!   hit in the affiliated location first promotes the line to its primary
//!   place.
//! * **L1–L2**: requests are word-based; L2 returns the words it has (a
//!   partial line is fine as long as the requested word is present),
//!   together with the compressible words of the affiliated line that fit
//!   in freed half-slots.
//! * **L2–memory**: a miss fetches the primary *and* affiliated lines but
//!   transfers exactly one line's worth of bandwidth — affiliated words
//!   ride in the freed halves.
//! * **Replacement**: an evicted line's compressible words are parked in
//!   its affiliated location when its pair is resident (dirty victims are
//!   written back first; the parked copy is clean).
//! * **Compressibility changes** (§3.3): a store that grows a primary word
//!   beyond 16 bits reclaims the half-slot, evicting the affiliated word
//!   (priority to primary); a store into an affiliated word promotes the
//!   line.

pub mod faults;
pub mod flags;
pub mod level;
mod memo;
pub mod reference;

pub use faults::{FaultInjector, FaultKind, FaultReport, InvariantChecker, Violation};
pub use flags::CppFlags;
pub use level::{scheme_compress_mask, CppLevel, CppVictim};
pub use reference::RefCppHierarchy;

use ccp_cache::config::{DesignKind, HierarchyConfig, LatencyConfig};
use ccp_cache::stats::HierarchyStats;
use ccp_cache::{AccessResult, Addr, CacheSim, HitSource, Word};
use ccp_mem::MainMemory;
use ccp_schemes::{CompressionScheme, CppScheme};

/// What the L2 returned for a word-based line request.
#[derive(Debug, Clone, Copy)]
struct L2Response {
    /// Available words of the requested L1 line (L1-line word coordinates).
    avail: u32,
    /// Prefetched compressible words of the L1 line's affiliated line.
    aff: u32,
    /// The requested L1 line's compressibility mask, so no later step of
    /// the access asks the memo for it again.
    comp: u32,
    /// Total latency of the request.
    latency: u32,
    /// L2 hit or memory.
    source: HitSource,
}

/// The complete CPP hierarchy: compressed L1 + compressed L2 over memory,
/// parameterized by the word-compression scheme `S`.
///
/// The scheme is a type parameter — dispatch is monomorphized, never
/// dynamic — and defaults to the paper's [`CppScheme`], so `CppHierarchy`
/// with no arguments *is* the paper's design. [`CppHierarchy::with_scheme`]
/// instantiates the same machinery over BDI or FPC.
///
/// # Examples
///
/// ```
/// use ccp_cache::{CacheSim, HitSource};
/// use ccp_cpp::CppHierarchy;
///
/// let mut cpp = CppHierarchy::paper();
/// // Two neighbouring lines of small (compressible) values.
/// for i in 0..32u32 {
///     cpp.mem_mut().write(0x1000 + i * 4, 7);
/// }
/// // Fetching the even line prefetches the odd line's words for free...
/// cpp.read(0x1000);
/// // ...so the odd line hits in the affiliated location (+1 cycle).
/// let r = cpp.read(0x1040);
/// assert_eq!(r.source, HitSource::L1Affiliated);
/// assert_eq!(r.latency, 2);
/// cpp.check_invariants().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct CppHierarchy<S: CompressionScheme = CppScheme> {
    cfg: HierarchyConfig,
    l1: CppLevel<S>,
    l2: CppLevel<S>,
    mem: MainMemory,
    stats: HierarchyStats,
}

impl CppHierarchy {
    /// Builds the paper's CPP hierarchy for `cfg` (`cfg.design` must be
    /// [`DesignKind::Cpp`]). Equivalent to
    /// `CppHierarchy::<CppScheme>::with_scheme(cfg)`; kept as an inherent
    /// constructor so the scheme-oblivious call sites read unchanged.
    ///
    /// # Panics
    /// Panics unless the L2 line is twice the L1 line: the paper's
    /// word-based L1↔L2 interface relies on an L1 primary/affiliated pair
    /// occupying the two halves of one L2 block.
    pub fn new(cfg: HierarchyConfig) -> Self {
        Self::with_scheme(cfg)
    }

    /// The paper's CPP configuration (§4.1) under the paper's scheme.
    pub fn paper() -> Self {
        Self::paper_scheme()
    }
}

impl<S: CompressionScheme> CppHierarchy<S> {
    /// Builds a hierarchy for `cfg` under scheme `S` (`cfg.design` must be
    /// [`DesignKind::Cpp`] — the *design* axis says how freed half-slots are
    /// spent; `S` says which words free them).
    ///
    /// # Panics
    /// Same geometry requirements as [`CppHierarchy::new`].
    pub fn with_scheme(cfg: HierarchyConfig) -> Self {
        assert_eq!(cfg.design, DesignKind::Cpp, "CppHierarchy implements CPP");
        assert_eq!(
            cfg.l2.line_bytes(),
            2 * cfg.l1.line_bytes(),
            "L2 block must be twice the L1 block (paper §3.3)"
        );
        assert!(cfg.l1.line_words() <= 16 && cfg.l2.line_words() <= 32);
        let mut stats = HierarchyStats::new();
        stats.tag_overhead_bits = Self::tag_overhead_bits(&cfg);
        CppHierarchy {
            l1: CppLevel::new(cfg.l1),
            l2: CppLevel::new(cfg.l2),
            mem: MainMemory::new(),
            stats,
            cfg,
        }
    }

    /// The paper's CPP configuration (§4.1) under scheme `S`.
    pub fn paper_scheme() -> Self {
        Self::with_scheme(HierarchyConfig::paper(DesignKind::Cpp))
    }

    /// Scheme `S`'s tag/metadata overhead summed over `cfg`'s geometry
    /// (Touché-style static model): per-line bits × lines, both levels.
    pub fn tag_overhead_bits(cfg: &HierarchyConfig) -> u64 {
        S::tag_bits_per_line(cfg.l1.line_words()) * u64::from(cfg.l1.num_lines())
            + S::tag_bits_per_line(cfg.l2.line_words()) * u64::from(cfg.l2.num_lines())
    }

    /// The L1 level (tests and analysis).
    pub fn l1_level(&self) -> &CppLevel<S> {
        &self.l1
    }

    /// The L2 level (tests and analysis).
    pub fn l2_level(&self) -> &CppLevel<S> {
        &self.l2
    }

    /// Mutable L1 access — exists for the fault-injection harness
    /// ([`faults::FaultInjector`]) and white-box tests; simulation paths
    /// never hand out mutable levels.
    pub fn l1_level_mut(&mut self) -> &mut CppLevel<S> {
        &mut self.l1
    }

    /// Mutable L2 access (fault injection and white-box tests).
    pub fn l2_level_mut(&mut self) -> &mut CppLevel<S> {
        &mut self.l2
    }

    /// Verifies the §3.3 invariants of both levels through
    /// [`InvariantChecker`], returning the first violation.
    pub fn check_invariants(&self) -> ccp_errors::SimResult<()> {
        InvariantChecker::assert_clean(self)
    }

    /// Writes `value` to memory at `addr` and keeps both levels' memos of
    /// line masks exact: the one way simulation and fault injection change a
    /// word.
    pub(crate) fn store_word(&mut self, addr: Addr, value: Word) {
        self.mem.write(addr, value);
        self.l1.note_store(&self.mem, addr, value);
        self.l2.note_store(&self.mem, addr, value);
    }

    /// Bus cost in half-words of transferring the masked words of the L1
    /// line at `base`, whose compressibility mask is `comp`, in compressed
    /// form, plus one half-word per affiliated word.
    fn compressed_transfer_hw(&mut self, base: Addr, mask: u32, comp: u32, aff: u32) -> u64 {
        debug_assert_eq!(comp, self.l1.line_mask(&self.mem, base), "line {base:#x}");
        // Compressible words cost one half-word, incompressible two:
        // |mask| + |mask \ comp|.
        u64::from(mask.count_ones())
            + u64::from((mask & !comp).count_ones())
            + u64::from(aff.count_ones())
    }

    /// Splits an L2-line availability mask into the response to the
    /// requested L1 line: its own half, and the compressible words of the
    /// other half (its affiliated line) that fit in freed half-slots.
    fn serve_masks(
        &mut self,
        pa: u32,
        l1_base: Addr,
        latency: u32,
        source: HitSource,
    ) -> L2Response {
        let w = self.l1.words(); // an L2 line is exactly two L1 lines
        let m = flags::mask_n(w);
        let shift = self.l2.geometry().word_offset(l1_base); // 0 or w
        let avail = (pa >> shift) & m;
        let other = (pa >> (shift ^ w)) & m;
        let pair = self.l1.pair_base(l1_base);
        let comp = self.l1.line_mask(&self.mem, l1_base);
        let other_comp = self.l1.line_mask(&self.mem, pair);
        // An affiliated word rides only in a freed half (its counterpart is
        // compressed) or an empty slot (counterpart not transferred).
        let aff = other & other_comp & (comp | !avail) & m;
        L2Response {
            avail,
            aff,
            comp,
            latency,
            source,
        }
    }

    /// Handles a demand request from L1 for `need_off` of the line at
    /// `l1_base`, fetching from memory as needed.
    fn l2_request(&mut self, l1_base: Addr, need_off: u32, is_write: bool) -> L2Response {
        if is_write {
            self.stats.l2.writes += 1;
        } else {
            self.stats.l2.reads += 1;
        }
        let lat = self.cfg.latency;
        let need_bit = 1u32 << (self.l2.geometry().word_offset(l1_base) + need_off);

        let primary = self.l2.lookup_primary(l1_base);
        if let Some(idx) = primary {
            let f = self.l2.flags(idx);
            if f.pa & need_bit != 0 {
                self.l2.touch(idx);
                return self.serve_masks(f.pa, l1_base, lat.l2_hit, HitSource::L2);
            }
            self.stats.l2.partial_line_misses += 1;
        } else if let Some(aidx) = self.l2.lookup_affiliated(l1_base) {
            let f = self.l2.flags(aidx);
            if f.aa & need_bit != 0 {
                self.l2.touch(aidx);
                self.stats.l2.affiliated_hits += 1;
                return self.serve_masks(f.aa, l1_base, lat.l2_hit, HitSource::L2);
            }
        }

        if is_write {
            self.stats.l2.write_misses += 1;
        } else {
            self.stats.l2.read_misses += 1;
        }
        let idx = self.fetch_fill_l2(l1_base, primary);
        let pa = self.l2.flags(idx).pa;
        self.serve_masks(pa, l1_base, lat.memory, HitSource::Memory)
    }

    /// Fetches the L2 line containing `addr` (and, in compressed half-slots,
    /// its affiliated L2 line) from memory, completing the partial primary
    /// line at `resident` or installing a new one. Transfers exactly one
    /// line of bandwidth. Returns the line's index.
    fn fetch_fill_l2(&mut self, addr: Addr, resident: Option<usize>) -> usize {
        let base = self.l2.geometry().line_base(addr);
        let words = self.l2.words();
        self.stats.mem_bus.fetch_words(u64::from(words));

        let comp = self.l2.line_mask(&self.mem, base);
        let pair = self.l2.pair_base(base);
        let pair_comp = self.l2.line_mask(&self.mem, pair);
        let mut aa = comp & pair_comp;
        if self.l2.lookup_primary(pair).is_some() {
            // Prefetched affiliated line already cached in its primary
            // place: discard it (paper §3.3).
            self.stats.prefetches_discarded += u64::from(aa.count_ones());
            aa = 0;
        }

        if let Some(idx) = resident {
            // Complete a partial primary line.
            let full = self.l2.full_mask();
            self.l2.merge_primary_words(idx, full, comp);
            let f = self.l2.flags_mut(idx);
            f.aa = aa & (f.vcp | !f.pa);
            let issued = f.aa.count_ones();
            self.l2.touch(idx);
            self.stats.prefetches_issued += u64::from(issued);
            idx
        } else {
            // The install supersedes a partial affiliated copy, if any.
            let flags = CppFlags::full_primary(words, comp, aa);
            self.stats.prefetches_issued += u64::from(flags.aa.count_ones());
            let (victim, idx) = self.l2.install_primary(base, flags, false);
            self.handle_l2_victim(victim);
            idx
        }
    }

    /// Memory write-back cost of the masked words of an L2 line whose
    /// compressibility mask is `comp`: conventional bandwidth in the
    /// paper's design, compressed when the `compress_writebacks` extension
    /// knob is on.
    fn mem_writeback_hw(&self, mask: u32, comp: u32) -> u64 {
        if !self.cfg.compress_writebacks {
            return 2 * u64::from(mask.count_ones());
        }
        u64::from(mask.count_ones()) + u64::from((mask & !comp).count_ones())
    }

    /// Write-back + parking for a line displaced from L2.
    fn handle_l2_victim(&mut self, victim: Option<CppVictim>) {
        let Some(v) = victim else { return };
        self.stats.prefetches_discarded += u64::from(v.flags.aa.count_ones());
        let comp = self.l2.line_mask(&self.mem, v.base);
        if v.dirty {
            // The paper's design spends freed halves only on fetch-side
            // prefetching; write-backs go at conventional bandwidth unless
            // the extension knob compresses them too.
            let hw = self.mem_writeback_hw(v.flags.pa, comp);
            self.stats.mem_bus.writeback_halfwords(hw);
        }
        let parked = self.l2.park(&self.mem, v.base, v.flags.pa, comp);
        if parked > 0 {
            self.stats.parked_lines += 1;
        }
    }

    /// Routes the dirty words of an L1 victim, whose compressibility mask
    /// is `comp16`, down to L2 (merging, promoting an affiliated copy, or
    /// writing straight to memory).
    fn l2_writeback(&mut self, l1_base: Addr, mask16: u32, comp16: u32) {
        let hw = self.compressed_transfer_hw(l1_base, mask16, comp16, 0);
        self.stats.l1_l2_bus.writeback_halfwords(hw);
        let shift = self.l2.geometry().word_offset(l1_base);
        let mask32 = mask16 << shift;
        let l2_base = self.l2.geometry().line_base(l1_base);

        if let Some(idx) = self.l2.lookup_primary(l1_base) {
            let comp = self.l2.line_mask(&self.mem, l2_base);
            let displaced = self.l2.merge_primary_words(idx, mask32, comp);
            self.stats.compressibility_evictions += u64::from(displaced);
            self.l2.set_dirty(idx);
            return;
        }
        let aa = self.l2.take_affiliated(l2_base);
        if aa != 0 {
            // A write into an affiliated copy promotes the line to its
            // primary place (paper §3.3), then the merge applies.
            self.stats.promotions += 1;
            let comp = self.l2.line_mask(&self.mem, l2_base);
            let flags = CppFlags {
                pa: aa,
                vcp: aa & comp,
                aa: 0,
            };
            let (victim, idx) = self.l2.install_primary(l2_base, flags, false);
            self.handle_l2_victim(victim);
            let displaced = self.l2.merge_primary_words(idx, mask32, comp);
            self.stats.compressibility_evictions += u64::from(displaced);
            self.l2.set_dirty(idx);
            return;
        }
        // Not on chip at L2: write through to memory.
        let comp = self.l2.line_mask(&self.mem, l2_base);
        let hw = self.mem_writeback_hw(mask32, comp);
        self.stats.mem_bus.writeback_halfwords(hw);
    }

    /// Write-back + parking for a line displaced from L1 (one mask for both).
    fn handle_l1_victim(&mut self, victim: Option<CppVictim>) {
        let Some(v) = victim else { return };
        self.stats.prefetches_discarded += u64::from(v.flags.aa.count_ones());
        let comp = self.l1.line_mask(&self.mem, v.base);
        if v.dirty {
            self.l2_writeback(v.base, v.flags.pa, comp);
        }
        let parked = self.l1.park(&self.mem, v.base, v.flags.pa, comp);
        if parked > 0 {
            self.stats.parked_lines += 1;
        }
    }

    /// Installs a fresh L1 primary line from an L2 response; returns its index.
    fn fill_l1(&mut self, l1_base: Addr, resp: &L2Response) -> usize {
        let vcp = resp.comp & resp.avail;
        let mut aa = resp.aff;
        let pair = self.l1.pair_base(l1_base);
        if aa != 0 && self.l1.lookup_primary(pair).is_some() {
            self.stats.prefetches_discarded += u64::from(aa.count_ones());
            aa = 0;
        }
        let mut flags = CppFlags {
            pa: resp.avail,
            vcp,
            aa: 0,
        };
        flags.aa = aa & flags.affiliated_capacity(self.l1.words());
        self.stats.prefetches_issued += u64::from(flags.aa.count_ones());
        let hw = self.compressed_transfer_hw(l1_base, resp.avail, resp.comp, flags.aa);
        self.stats.l1_l2_bus.fetch_halfwords(hw);
        let (victim, idx) = self.l1.install_primary(l1_base, flags, false);
        self.handle_l1_victim(victim);
        idx
    }

    /// Adds prefetched affiliated words to an existing L1 primary line
    /// (partial-miss merges), respecting the one-copy rule and slot
    /// capacity.
    fn merge_aff_into_l1(&mut self, idx: usize, l1_base: Addr, aff_mask: u32) {
        if aff_mask == 0 {
            return;
        }
        let pair = self.l1.pair_base(l1_base);
        if self.l1.lookup_primary(pair).is_some() {
            self.stats.prefetches_discarded += u64::from(aff_mask.count_ones());
            return;
        }
        let added = self.l1.add_affiliated_words(idx, aff_mask);
        self.stats.prefetches_issued += u64::from(added.count_ones());
        self.stats.prefetches_discarded += u64::from((aff_mask & !added).count_ones());
    }

    /// Applies a store to a present primary word: functional memory update,
    /// dirty bit, and the §3.3 compressibility bookkeeping.
    fn do_primary_write(&mut self, idx: usize, addr: Addr, off: u32, value: Word) {
        self.store_word(addr, value);
        self.l1.set_dirty(idx);
        if S::BASE_SENSITIVE && off == 0 {
            // Rewriting the base word re-classifies every word of the line.
            let evicted = self.l1.refresh_primary_flags(&self.mem, idx);
            self.stats.compressibility_evictions += u64::from(evicted);
            return;
        }
        // `store_word` has just re-tested this word in the line's memo.
        let base = self.l1.geometry().line_base(addr);
        let now_c = self.l1.line_mask(&self.mem, base) & (1 << off) != 0;
        let evicted = self.l1.update_primary_word(idx, off, now_c);
        self.stats.compressibility_evictions += u64::from(evicted);
    }

    /// Promotes `addr`'s line from its affiliated location to its primary
    /// place (write hit in the affiliated line, paper §3.3); returns its index.
    fn promote_l1(&mut self, addr: Addr) -> usize {
        let base = self.l1.geometry().line_base(addr);
        let aa = self.l1.take_affiliated(base);
        debug_assert_ne!(aa, 0, "promotion without an affiliated copy");
        self.stats.promotions += 1;
        let comp = self.l1.line_mask(&self.mem, base);
        let flags = CppFlags {
            pa: aa,
            vcp: aa & comp,
            aa: 0,
        };
        let (victim, idx) = self.l1.install_primary(base, flags, false);
        self.handle_l1_victim(victim);
        idx
    }

    fn access(&mut self, addr: Addr, write: Option<Word>) -> AccessResult {
        debug_assert_eq!(addr & 3, 0, "unaligned access at {addr:#x}");
        let is_write = write.is_some();
        if is_write {
            self.stats.l1.writes += 1;
        } else {
            self.stats.l1.reads += 1;
        }
        let lat = self.cfg.latency;
        let off = self.l1.geometry().word_offset(addr);
        let bit = 1u32 << off;
        let l1_base = self.l1.geometry().line_base(addr);

        // 1. Primary location probe.
        if let Some(idx) = self.l1.lookup_primary(addr) {
            if self.l1.flags(idx).pa & bit != 0 {
                self.l1.touch(idx);
                if let Some(v) = write {
                    self.do_primary_write(idx, addr, off, v);
                }
                return AccessResult {
                    latency: lat.l1_hit,
                    source: HitSource::L1,
                };
            }
            // Partial miss: the tag is resident but the word is not.
            self.stats.l1.partial_line_misses += 1;
            if is_write {
                self.stats.l1.write_misses += 1;
            } else {
                self.stats.l1.read_misses += 1;
            }
            let resp = self.l2_request(l1_base, off, is_write);
            let displaced = self.l1.merge_primary_words(idx, resp.avail, resp.comp);
            self.stats.compressibility_evictions += u64::from(displaced);
            self.merge_aff_into_l1(idx, l1_base, resp.aff);
            let hw = self.compressed_transfer_hw(l1_base, resp.avail, resp.comp, 0);
            self.stats.l1_l2_bus.fetch_halfwords(hw);
            self.l1.touch(idx);
            if let Some(v) = write {
                self.do_primary_write(idx, addr, off, v);
            }
            return AccessResult {
                latency: resp.latency,
                source: resp.source,
            };
        }

        // 2. Affiliated location probe (line number XOR 1).
        if let Some(aidx) = self.l1.lookup_affiliated(addr) {
            if self.l1.flags(aidx).aa & bit != 0 {
                self.stats.l1.affiliated_hits += 1;
                match write {
                    None => self.l1.touch(aidx),
                    // A write hit in the affiliated line brings the line to
                    // its primary place first (paper §3.3).
                    Some(v) => {
                        let idx = self.promote_l1(addr);
                        self.do_primary_write(idx, addr, off, v);
                    }
                }
                return AccessResult {
                    latency: lat.l1_hit + lat.affiliated_extra,
                    source: HitSource::L1Affiliated,
                };
            }
        }

        // 3. Full L1 miss.
        if is_write {
            self.stats.l1.write_misses += 1;
        } else {
            self.stats.l1.read_misses += 1;
        }
        let resp = self.l2_request(l1_base, off, is_write);
        let idx = self.fill_l1(l1_base, &resp);
        if let Some(v) = write {
            self.do_primary_write(idx, addr, off, v);
        }
        AccessResult {
            latency: resp.latency,
            source: resp.source,
        }
    }
}

impl<S: CompressionScheme> CacheSim for CppHierarchy<S> {
    fn read(&mut self, addr: Addr) -> AccessResult {
        self.access(addr, None)
    }

    fn probe_l1(&self, addr: Addr) -> bool {
        let off = self.l1.geometry().word_offset(addr);
        let bit = 1u32 << off;
        if let Some(idx) = self.l1.lookup_primary(addr) {
            if self.l1.flags(idx).pa & bit != 0 {
                return true;
            }
        }
        if let Some(aidx) = self.l1.lookup_affiliated(addr) {
            if self.l1.flags(aidx).aa & bit != 0 {
                return true;
            }
        }
        false
    }

    fn write(&mut self, addr: Addr, value: Word) -> AccessResult {
        self.access(addr, Some(value))
    }

    fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
        // The tag-overhead column is a property of geometry × scheme, not of
        // the access stream: it survives a counter reset.
        self.stats.tag_overhead_bits = Self::tag_overhead_bits(&self.cfg);
    }

    fn latencies(&self) -> LatencyConfig {
        self.cfg.latency
    }

    fn set_latencies(&mut self, lat: LatencyConfig) {
        self.cfg.latency = lat;
    }

    fn mem(&self) -> &MainMemory {
        &self.mem
    }

    fn mem_mut(&mut self) -> &mut MainMemory {
        // The caller may change any word: no memoized mask can be trusted.
        self.l1.clear_memo();
        self.l2.clear_memo();
        &mut self.mem
    }

    fn name(&self) -> &'static str {
        "CPP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpp() -> CppHierarchy {
        CppHierarchy::paper()
    }

    /// Fill a 64-byte line region with small (compressible) values.
    fn fill_small(c: &mut CppHierarchy, base: Addr) {
        for i in 0..16 {
            c.mem_mut().write(base + i * 4, i + 1);
        }
    }

    /// Fill a 64-byte line region with incompressible values.
    fn fill_big(c: &mut CppHierarchy, base: Addr) {
        for i in 0..16 {
            c.mem_mut().write(base + i * 4, 0xDEAD_0000 | (0xBEEF ^ i));
        }
    }

    #[test]
    fn cold_miss_prefetches_compressible_pair_words() {
        let mut c = cpp();
        fill_small(&mut c, 0x1000);
        fill_small(&mut c, 0x1040);
        let r = c.read(0x1000);
        assert_eq!(r.source, HitSource::Memory);
        assert_eq!(r.latency, 100);
        // The pair line 0x1040 should now hit in the affiliated location.
        let r2 = c.read(0x1040);
        assert_eq!(r2.source, HitSource::L1Affiliated);
        assert_eq!(r2.latency, 2, "affiliated hit costs one extra cycle");
        assert_eq!(c.stats().l1.affiliated_hits, 1);
        c.check_invariants().unwrap();
    }

    #[test]
    fn incompressible_pair_words_are_not_prefetched() {
        let mut c = cpp();
        fill_small(&mut c, 0x1000);
        fill_big(&mut c, 0x1040);
        c.read(0x1000);
        // 0x1040's words are incompressible: no affiliated availability.
        let r = c.read(0x1040);
        assert!(r.l1_miss(), "incompressible pair cannot ride along");
        c.check_invariants().unwrap();
    }

    #[test]
    fn incompressible_primary_words_leave_no_slot() {
        let mut c = cpp();
        fill_big(&mut c, 0x1000);
        fill_small(&mut c, 0x1040);
        c.read(0x1000);
        // Pair words are compressible but every slot is occupied by an
        // uncompressed primary word.
        let idx = c.l1_level().lookup_primary(0x1000).unwrap();
        assert_eq!(c.l1_level().flags(idx).aa, 0);
        let r = c.read(0x1040);
        assert!(r.l1_miss());
    }

    #[test]
    fn mixed_line_prefetches_only_matching_offsets() {
        let mut c = cpp();
        // Primary: words 0..8 small, 8..16 big. Pair: all small.
        for i in 0..8 {
            c.mem_mut().write(0x1000 + i * 4, 7);
        }
        for i in 8..16 {
            c.mem_mut().write(0x1000 + i * 4, 0xDEAD_0000 | i);
        }
        fill_small(&mut c, 0x1040);
        c.read(0x1000);
        let idx = c.l1_level().lookup_primary(0x1000).unwrap();
        let f = c.l1_level().flags(idx);
        assert_eq!(f.pa, 0xFFFF);
        assert_eq!(f.vcp, 0x00FF);
        assert_eq!(f.aa, 0x00FF, "affiliated words only in freed halves");
        // Offset 3 of the pair is prefetched; offset 12 is not.
        assert_eq!(c.read(0x104C).source, HitSource::L1Affiliated);
        assert!(c.read(0x1070).l1_miss());
        c.check_invariants().unwrap();
    }

    #[test]
    fn memory_traffic_is_one_line_per_l2_miss() {
        let mut c = cpp();
        fill_small(&mut c, 0x2000);
        fill_small(&mut c, 0x2040);
        c.read(0x2000);
        // One L2 fetch: exactly 32 words = 64 half-words of bandwidth, even
        // though two lines' worth of compressible data arrived.
        assert_eq!(c.stats().mem_bus.in_halfwords, 64);
        c.read(0x2040); // affiliated hit → no extra traffic
        assert_eq!(c.stats().mem_bus.in_halfwords, 64);
    }

    #[test]
    fn write_hit_in_affiliated_promotes_line() {
        let mut c = cpp();
        fill_small(&mut c, 0x3000);
        fill_small(&mut c, 0x3040);
        c.read(0x3000);
        assert_eq!(c.stats().promotions, 0);
        let r = c.write(0x3044, 9);
        assert_eq!(r.source, HitSource::L1Affiliated);
        assert_eq!(c.stats().promotions, 1);
        // Line now resident at its primary place, dirty, with the write
        // applied.
        let idx = c
            .l1_level()
            .lookup_primary(0x3040)
            .expect("promoted to primary");
        assert!(c.l1_level().dirty(idx));
        assert_eq!(c.mem().read(0x3044), 9);
        assert_eq!(c.read(0x3044).source, HitSource::L1);
        c.check_invariants().unwrap();
    }

    #[test]
    fn read_hit_in_affiliated_does_not_promote() {
        let mut c = cpp();
        fill_small(&mut c, 0x3000);
        fill_small(&mut c, 0x3040);
        c.read(0x3000);
        c.read(0x3044);
        assert_eq!(c.stats().promotions, 0);
        assert!(c.l1_level().lookup_primary(0x3040).is_none());
    }

    #[test]
    fn store_growing_word_evicts_affiliated_word() {
        let mut c = cpp();
        fill_small(&mut c, 0x4000);
        fill_small(&mut c, 0x4040);
        c.read(0x4000);
        let idx = c.l1_level().lookup_primary(0x4000).unwrap();
        assert_eq!(c.l1_level().flags(idx).aa, 0xFFFF);
        // Grow word 5 of the primary line incompressible.
        c.write(0x4014, 0xDEAD_BEEF);
        let f = c.l1_level().flags(idx);
        assert!(!f.vcp_bit(5));
        assert!(!f.aa_bit(5), "conflicting affiliated word evicted");
        assert_eq!(f.aa, 0xFFFF & !(1 << 5));
        assert_eq!(c.stats().compressibility_evictions, 1);
        // The evicted affiliated word now misses; others still hit.
        assert!(c.read(0x4054).l1_miss());
        c.check_invariants().unwrap();
    }

    #[test]
    fn store_shrinking_word_frees_slot() {
        let mut c = cpp();
        fill_big(&mut c, 0x5000);
        c.read(0x5000);
        let idx = c.l1_level().lookup_primary(0x5000).unwrap();
        assert_eq!(c.l1_level().flags(idx).vcp, 0);
        c.write(0x5008, 3);
        assert!(c.l1_level().flags(idx).vcp_bit(2));
        c.check_invariants().unwrap();
    }

    #[test]
    fn evicted_line_parks_in_affiliated_place() {
        let mut c = cpp();
        fill_small(&mut c, 0x6000);
        fill_small(&mut c, 0x6040);
        c.read(0x6040); // pair line resident as primary (hosts parking)
        c.write(0x6004, 3); // affiliated write → 0x6000 promoted to primary
        assert!(c.l1_level().lookup_primary(0x6000).is_some());
        // Conflict-evict 0x6000 from its L1 set (8 KB stride).
        c.read(0x6000 + 8 * 1024);
        assert!(c.stats().parked_lines >= 1, "victim parked");
        // The parked copy still serves reads from the affiliated location.
        let r = c.read(0x6000);
        assert_eq!(r.source, HitSource::L1Affiliated);
        c.read(0x6004);
        assert_eq!(c.mem().read(0x6004), 3);
        c.check_invariants().unwrap();
    }

    #[test]
    fn dirty_victim_written_back_then_parked_clean() {
        let mut c = cpp();
        fill_small(&mut c, 0x6000);
        fill_small(&mut c, 0x6040);
        c.read(0x6040);
        c.write(0x6004, 42); // dirty 0x6000's line
        let wb_before = c.stats().l1_l2_bus.out_halfwords;
        c.read(0x6000 + 8 * 1024); // evict it
        assert!(
            c.stats().l1_l2_bus.out_halfwords > wb_before,
            "dirty victim written back"
        );
        // Parked copy is clean and readable.
        let r = c.read(0x6004);
        assert_eq!(c.mem().read(0x6004), 42);
        assert_eq!(r.source, HitSource::L1Affiliated);
        c.check_invariants().unwrap();
    }

    #[test]
    fn prefetched_line_discarded_if_already_primary() {
        let mut c = cpp();
        fill_small(&mut c, 0x7000);
        fill_small(&mut c, 0x7040);
        // Word 0 of 0x7000 is incompressible, so it cannot ride along with
        // 0x7040's fill and a later read of it truly misses.
        c.mem_mut().write(0x7000, 0xDEAD_BEEF);
        c.read(0x7040); // 0x7040 primary
        c.read(0x7000); // full miss → fill; prefetch of 0x7040 discarded
        let idx = c.l1_level().lookup_primary(0x7000).unwrap();
        assert_eq!(c.l1_level().flags(idx).aa, 0, "one-copy rule");
        assert!(c.stats().prefetches_discarded > 0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn linked_list_scenario_from_paper_section_2() {
        // Paper Figure 5/6: 16-byte nodes {next, type, info, prev} where
        // next/prev/type are compressible and info is a big value. With
        // 64-byte lines, four nodes per line; compression lets the traversal
        // find fields of the *next* line's nodes already on chip.
        let mut c = cpp();
        let heap = 0x10_0000u32;
        let nodes = 64u32;
        for n in 0..nodes {
            let a = heap + n * 16;
            let next = if n + 1 < nodes {
                heap + (n + 1) * 16
            } else {
                0
            };
            c.mem_mut().write(a, next); // pointer (same chunk → compressible)
            c.mem_mut().write(a + 4, n % 3); // small type tag
            c.mem_mut().write(a + 8, 0x8000_0000 | (n * 0x10001)); // big info
            c.mem_mut().write(a + 12, 5); // small
        }
        let mut misses = 0u32;
        let mut p = heap;
        while p != 0 {
            if c.read(p).l1_miss() {
                misses += 1;
            }
            let next = c.mem().read(p);
            c.read(p + 4);
            if c.mem().read(p + 4) == 0 {
                c.read(p + 8); // info
            }
            p = next;
        }
        c.check_invariants().unwrap();
        // 64 nodes / 4 per line = 16 lines; a baseline traversal of the
        // pointer fields would miss on every line. With CPP the compressible
        // next/type fields of the odd lines ride with the even lines, so the
        // pointer-chase itself misses on roughly half the lines.
        assert!(
            misses <= 10,
            "pointer-chase misses should be roughly halved, got {misses}/16"
        );
        assert!(c.stats().l1.affiliated_hits > 0);
    }

    #[test]
    fn values_coherent_through_all_paths() {
        let mut c = cpp();
        // A torture pattern over a small footprint with conflicting lines.
        let mut golden = std::collections::BTreeMap::new();
        let mut x: u32 = 0xACE1;
        for i in 0..4000u32 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let addr = ((x & 0x7FFF) & !3) + 0x4_0000;
            if i % 3 == 0 {
                let v = if i % 6 == 0 { x } else { x & 0xFFF };
                c.write(addr, v);
                golden.insert(addr, v);
            } else {
                let expect = golden.get(&addr).copied().unwrap_or(0);
                c.read(addr);
                assert_eq!(c.mem().read(addr), expect, "addr {addr:#x} at op {i}");
            }
        }
        c.check_invariants().unwrap();
    }

    #[test]
    fn parked_line_promoted_on_write() {
        let mut c = cpp();
        fill_small(&mut c, 0x9000);
        fill_small(&mut c, 0x9040);
        c.read(0x9040); // host primary
        c.read(0x9000); // 0x9000 primary
                        // Conflict-evict 0x9000; it parks into 0x9040's physical line.
        c.read(0x9000 + 8 * 1024);
        let r = c.read(0x9000);
        assert_eq!(r.source, HitSource::L1Affiliated);
        // A write to a parked word promotes the line back to primary.
        c.write(0x9004, 1);
        assert!(c.l1_level().lookup_primary(0x9000).is_some());
        c.check_invariants().unwrap();
    }

    #[test]
    fn l2_serves_partial_line_word_based() {
        let mut c = cpp();
        fill_small(&mut c, 0xA000);
        fill_small(&mut c, 0xA040);
        c.read(0xA000); // L2 now holds the 128B line 0xA000..0xA080 fully
                        // Evict everything from L1 via conflicting lines.
        c.read(0xA000 + 8 * 1024);
        c.read(0xA040 + 8 * 1024);
        // Re-read: L2 hit (word-based) without memory traffic.
        let traffic = c.stats().mem_bus.in_halfwords;
        let r = c.read(0xA004);
        assert_eq!(r.source, HitSource::L2);
        assert_eq!(r.latency, 10);
        assert_eq!(c.stats().mem_bus.in_halfwords, traffic);
        c.check_invariants().unwrap();
    }

    #[test]
    fn mem_mut_writes_reach_the_next_classification() {
        let mut c = cpp();
        fill_small(&mut c, 0x1000);
        c.read(0x1000);
        assert_eq!(c.l1_level().memoized_mask(0x1000), Some(0xFFFF));
        c.mem_mut().write(0x1008, 0xDEAD_BEEF);
        assert_eq!(c.l1_level().memoized_mask(0x1000), None);
        assert_eq!(c.l2_level().memoized_mask(0x1000), None);
        let mem = c.mem().clone();
        assert_eq!(c.l1_level_mut().line_mask(&mem, 0x1000), 0xFFFF & !(1 << 2));
        assert_eq!(c.l2_level_mut().line_mask(&mem, 0x1000), !(1 << 2));
    }

    #[test]
    fn stores_keep_both_levels_memo_exact() {
        let mut c = CppHierarchy::<ccp_schemes::BdiScheme>::paper_scheme();
        for i in 0..32 {
            c.mem_mut().write(0x1000 + i * 4, 0x7000_0000 + i);
        }
        c.read(0x1000);
        // Word 0 of the L1 line 0x1040 is word 16 of the L2 line 0x1000:
        // the store moves one L1 line's base and one L2 word.
        c.write(0x1040, 0x1234_5678);
        c.write(0x1004, 5);
        for (level, base) in [(c.l1_level(), 0x1000), (c.l1_level(), 0x1040)] {
            if let Some(m) = level.memoized_mask(base) {
                assert_eq!(
                    m,
                    scheme_compress_mask::<ccp_schemes::BdiScheme>(&c.mem, base, 16)
                );
            }
        }
        let l2 = c
            .l2_level()
            .memoized_mask(0x1000)
            .expect("filled by the L2 miss");
        assert_eq!(
            l2,
            scheme_compress_mask::<ccp_schemes::BdiScheme>(&c.mem, 0x1000, 32)
        );
        assert_eq!(l2 >> 16 & 1, 0, "0x1234_5678 is no delta off 0x7000_0000");
        c.check_invariants().unwrap();
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut c = cpp();
        c.read(0xB000);
        c.reset_stats();
        assert_eq!(c.stats().l1.reads, 0);
        assert_eq!(c.read(0xB000).source, HitSource::L1);
    }

    #[test]
    fn halved_latency_applies_to_cpp() {
        let mut c = cpp();
        c.set_latencies(c.latencies().halved_miss_penalty());
        assert_eq!(c.read(0xC000).latency, 50);
        assert_eq!(c.read(0xC000).latency, 1);
    }

    #[test]
    fn sequential_walk_halves_misses_on_compressible_data() {
        let mut c = cpp();
        for i in 0..(64 * 16) {
            c.mem_mut().write(0x2_0000 + i * 4, 1);
        }
        let mut misses = 0;
        for i in 0..(64 * 16) {
            if c.read(0x2_0000 + i * 4).l1_miss() {
                misses += 1;
            }
        }
        // 64 lines; every odd line rides with its even pair.
        assert_eq!(misses, 32, "odd lines prefetched entirely");
        c.check_invariants().unwrap();
    }
}
