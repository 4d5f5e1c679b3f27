//! Reference CPP implementation — the conformance oracle for the optimized
//! hierarchy in the crate root.
//!
//! This engine implements the paper's semantics in the most literal form,
//! preserving the pre-overhaul representations end to end: per-line flag
//! state as **per-word `bool` arrays** (one flag per word slot, the way
//! Figure 7 draws them), cache geometry as division/modulo arithmetic, a
//! hashed page directory (`ShadowMemory`) paying one hash lookup per word
//! read, and every compressibility decision as an individual
//! [`is_compressible`] call against a single word. It shares no storage
//! layout, no mask arithmetic, and no line-view fast path with
//! [`crate::CppHierarchy`]; only the statistics struct and the [`CacheSim`]
//! surface are common. `repro perf` times the two engines on identical
//! traces, so the speedup it reports is the measured value of exactly this
//! representational gap.
//!
//! The [`CacheSim`] contract still exposes a [`MainMemory`]; the engine
//! keeps it as the architectural image (every store is mirrored into it)
//! and rebuilds the shadow directory from it whenever an external caller
//! takes `mem_mut()` — e.g. when trace replay installs the initial image.
//!
//! The differential suite (`ccp-sim`'s `difftest`) replays every synthetic
//! benchmark through both engines and requires **byte-identical**
//! [`HierarchyStats`], so any optimization of the hot path that changes a
//! replacement decision, a flag transition, or a single counter shows up as
//! a diff. Keep this file boring: when the two engines disagree, this one
//! is the spec.

// The naive per-word loops are the point of this module: they are the
// pre-overhaul representation `repro perf` measures against.
#![allow(clippy::needless_range_loop, clippy::manual_memcpy)]

use ccp_cache::config::{DesignKind, HierarchyConfig, LatencyConfig};
use ccp_cache::stats::HierarchyStats;
use ccp_cache::{AccessResult, Addr, CacheSim, HitSource, Word};
use ccp_compress::is_compressible;
use ccp_mem::MainMemory;

/// Widest supported line (the paper's L2 line is 32 words).
const MAX_WORDS: usize = 32;

/// Per-word flag vector: one `bool` per word slot.
type WordMask = [bool; MAX_WORDS];

const NO_WORDS: WordMask = [false; MAX_WORDS];

/// Words per shadow page (4 KB, matching [`MainMemory`]'s page size).
const SHADOW_PAGE_WORDS: usize = 1024;

/// The pre-overhaul main-memory representation: a hashed page directory
/// with one hash lookup per word access. Semantics match [`MainMemory`]
/// exactly (zero reads for untouched pages, zero-write elision on absent
/// pages); only the lookup cost differs.
#[derive(Debug, Clone, Default)]
struct ShadowMemory {
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookup only; the map is never iterated"
    )]
    pages: std::collections::HashMap<u32, Box<[Word; SHADOW_PAGE_WORDS]>>,
}

impl ShadowMemory {
    fn read(&self, addr: Addr) -> Word {
        match self.pages.get(&(addr >> 12)) {
            Some(p) => p[(addr as usize >> 2) % SHADOW_PAGE_WORDS],
            None => 0,
        }
    }

    fn write(&mut self, addr: Addr, value: Word) {
        let page = addr >> 12;
        if let Some(p) = self.pages.get_mut(&page) {
            p[(addr as usize >> 2) % SHADOW_PAGE_WORDS] = value;
            return;
        }
        if value == 0 {
            return;
        }
        let mut p = Box::new([0u32; SHADOW_PAGE_WORDS]);
        p[(addr as usize >> 2) % SHADOW_PAGE_WORDS] = value;
        self.pages.insert(page, p);
    }
}

fn count(m: &WordMask) -> u64 {
    m.iter().map(|&b| u64::from(b)).sum()
}

fn any(m: &WordMask) -> bool {
    m.iter().any(|&b| b)
}

/// Naive cache geometry: division and modulo instead of precomputed shifts.
#[derive(Debug, Clone, Copy)]
struct RefGeometry {
    assoc: u32,
    line_bytes: u32,
    num_sets: u32,
}

impl RefGeometry {
    fn new(g: &ccp_cache::geometry::CacheGeometry) -> Self {
        RefGeometry {
            assoc: g.assoc(),
            line_bytes: g.line_bytes(),
            num_sets: g.num_sets(),
        }
    }

    fn line_words(&self) -> u32 {
        self.line_bytes / 4
    }

    fn line_number(&self, addr: Addr) -> u32 {
        addr / self.line_bytes
    }

    fn set_index(&self, addr: Addr) -> u32 {
        self.line_number(addr) % self.num_sets
    }

    fn tag(&self, addr: Addr) -> u32 {
        self.line_number(addr) / self.num_sets
    }

    fn line_base(&self, addr: Addr) -> Addr {
        addr - addr % self.line_bytes
    }

    fn word_offset(&self, addr: Addr) -> u32 {
        (addr % self.line_bytes) / 4
    }

    fn base_from_tag_set(&self, tag: u32, set: u32) -> Addr {
        (tag * self.num_sets + set) * self.line_bytes
    }

    fn affiliated_line_base(&self, addr: Addr) -> Addr {
        (self.line_number(addr) ^ 1) * self.line_bytes
    }
}

/// Per-line flags as plain per-word booleans (paper Figure 7, literally).
#[derive(Debug, Clone, Copy)]
struct RefFlags {
    pa: WordMask,
    vcp: WordMask,
    aa: WordMask,
}

impl RefFlags {
    fn empty() -> Self {
        RefFlags {
            pa: NO_WORDS,
            vcp: NO_WORDS,
            aa: NO_WORDS,
        }
    }

    /// Fully-present primary line; `vcp`/`aa` clipped to the structural
    /// invariant word by word.
    fn full_primary(words: u32, vcp: WordMask, aa: WordMask) -> Self {
        let mut f = RefFlags::empty();
        for i in 0..MAX_WORDS {
            let in_line = i < words as usize;
            f.pa[i] = in_line;
            f.vcp[i] = vcp[i] && in_line;
            f.aa[i] = aa[i] && (f.vcp[i] || !f.pa[i]) && in_line;
        }
        f
    }

    /// Slots that can accept an affiliated word: freed halves and empty
    /// slots.
    fn affiliated_capacity(&self, words: u32) -> WordMask {
        let mut cap = NO_WORDS;
        for i in 0..MAX_WORDS {
            cap[i] = (self.vcp[i] || !self.pa[i]) && i < words as usize;
        }
        cap
    }
}

/// Per-word compressibility of the line at `base`, one classify call and
/// one hashed memory read per word.
fn ref_compress_mask(mem: &ShadowMemory, base: Addr, words: u32) -> WordMask {
    let mut m = NO_WORDS;
    let mut a = base;
    for slot in m.iter_mut().take(words as usize) {
        *slot = is_compressible(mem.read(a), a);
        a = a.wrapping_add(4);
    }
    m
}

#[derive(Debug, Clone)]
struct RefLine {
    valid: bool,
    tag: u32,
    dirty: bool,
    lru_stamp: u64,
    flags: RefFlags,
}

/// A victim displaced from a level.
#[derive(Debug, Clone)]
struct RefVictim {
    base: Addr,
    dirty: bool,
    flags: RefFlags,
}

/// One cache level: a plain vector of lines scanned way by way.
#[derive(Debug, Clone)]
struct RefLevel {
    geom: RefGeometry,
    lines: Vec<RefLine>,
    clock: u64,
}

impl RefLevel {
    fn new(geom: &ccp_cache::geometry::CacheGeometry) -> Self {
        let g = RefGeometry::new(geom);
        RefLevel {
            geom: g,
            lines: (0..g.num_sets * g.assoc)
                .map(|_| RefLine {
                    valid: false,
                    tag: 0,
                    dirty: false,
                    lru_stamp: 0,
                    flags: RefFlags::empty(),
                })
                .collect(),
            clock: 0,
        }
    }

    fn words(&self) -> u32 {
        self.geom.line_words()
    }

    fn pair_base(&self, addr: Addr) -> Addr {
        self.geom.affiliated_line_base(addr)
    }

    fn idx(&self, set: u32, way: u32) -> usize {
        (set * self.geom.assoc + way) as usize
    }

    fn lookup(&self, addr: Addr) -> Option<usize> {
        let set = self.geom.set_index(addr);
        let tag = self.geom.tag(addr);
        (0..self.geom.assoc).find_map(|way| {
            let i = self.idx(set, way);
            let l = &self.lines[i];
            (l.valid && l.tag == tag).then_some(i)
        })
    }

    fn lookup_affiliated(&self, addr: Addr) -> Option<usize> {
        self.lookup(self.pair_base(addr))
    }

    fn touch(&mut self, idx: usize) {
        self.clock += 1;
        self.lines[idx].lru_stamp = self.clock;
    }

    fn base_of(&self, idx: usize) -> Addr {
        #[expect(
            clippy::expect_used,
            reason = "a line index is below sets × assoc, which fits in u32"
        )]
        let set = u32::try_from(idx).expect("line index fits in u32") / self.geom.assoc;
        self.geom.base_from_tag_set(self.lines[idx].tag, set)
    }

    fn victim_index(&self, addr: Addr) -> usize {
        let set = self.geom.set_index(addr);
        let mut best = self.idx(set, 0);
        for way in 0..self.geom.assoc {
            let i = self.idx(set, way);
            if !self.lines[i].valid {
                return i;
            }
            if self.lines[i].lru_stamp < self.lines[best].lru_stamp {
                best = i;
            }
        }
        best
    }

    /// Installs `base` as primary, clearing any affiliated copy of it (the
    /// one-copy rule), exactly like the optimized level.
    fn install_primary(&mut self, base: Addr, flags: RefFlags, dirty: bool) -> Option<RefVictim> {
        if let Some(aidx) = self.lookup_affiliated(base) {
            self.lines[aidx].flags.aa = NO_WORDS;
        }
        let idx = self.victim_index(base);
        let evicted = if self.lines[idx].valid {
            Some(RefVictim {
                base: self.base_of(idx),
                dirty: self.lines[idx].dirty,
                flags: self.lines[idx].flags,
            })
        } else {
            None
        };
        self.clock += 1;
        self.lines[idx] = RefLine {
            valid: true,
            tag: self.geom.tag(base),
            dirty,
            lru_stamp: self.clock,
            flags,
        };
        evicted
    }

    fn park(&mut self, mem: &ShadowMemory, victim_base: Addr, victim_pa: &WordMask) -> u64 {
        let Some(pidx) = self.lookup(self.pair_base(victim_base)) else {
            return 0;
        };
        let host = self.lines[pidx].flags;
        let comp = ref_compress_mask(mem, victim_base, self.words());
        let cap = host.affiliated_capacity(self.words());
        let mut parked = NO_WORDS;
        for i in 0..MAX_WORDS {
            parked[i] = victim_pa[i] && comp[i] && cap[i];
        }
        if any(&parked) {
            self.lines[pidx].flags.aa = parked;
        }
        count(&parked)
    }

    fn take_affiliated(&mut self, base: Addr) -> WordMask {
        if let Some(aidx) = self.lookup_affiliated(base) {
            let aa = self.lines[aidx].flags.aa;
            self.lines[aidx].flags.aa = NO_WORDS;
            aa
        } else {
            NO_WORDS
        }
    }

    fn update_primary_word(&mut self, idx: usize, off: u32, now_compressible: bool) -> u64 {
        let off = off as usize;
        let f = &mut self.lines[idx].flags;
        if now_compressible {
            f.vcp[off] = true;
            return 0;
        }
        f.vcp[off] = false;
        if !f.aa[off] {
            return 0;
        }
        f.aa[off] = false;
        1
    }

    fn merge_primary_words(&mut self, mem: &ShadowMemory, idx: usize, new_mask: &WordMask) -> u64 {
        let base = self.base_of(idx);
        let comp = ref_compress_mask(mem, base, self.words());
        let f = &mut self.lines[idx].flags;
        let mut displaced = 0u64;
        for i in 0..MAX_WORDS {
            f.pa[i] = f.pa[i] || new_mask[i];
            f.vcp[i] = (f.vcp[i] && !new_mask[i]) || (comp[i] && new_mask[i]);
            let conflict = f.aa[i] && new_mask[i] && !f.vcp[i];
            if conflict {
                f.aa[i] = false;
                displaced += 1;
            }
        }
        displaced
    }

    fn add_affiliated_words(&mut self, idx: usize, aff_mask: &WordMask) -> WordMask {
        let words = self.words();
        let cap = self.lines[idx].flags.affiliated_capacity(words);
        let f = &mut self.lines[idx].flags;
        let mut added = NO_WORDS;
        for i in 0..MAX_WORDS {
            added[i] = aff_mask[i] && cap[i];
            f.aa[i] = f.aa[i] || added[i];
        }
        added
    }
}

/// What the L2 returned for a word-based line request.
#[derive(Debug, Clone, Copy)]
struct RefL2Response {
    avail: WordMask,
    aff: WordMask,
    latency: u32,
    source: HitSource,
}

/// The reference CPP hierarchy: same semantics as [`crate::CppHierarchy`],
/// naive representation throughout.
#[derive(Debug, Clone)]
pub struct RefCppHierarchy {
    cfg: HierarchyConfig,
    l1: RefLevel,
    l2: RefLevel,
    mem: MainMemory,
    shadow: ShadowMemory,
    shadow_stale: bool,
    stats: HierarchyStats,
}

impl RefCppHierarchy {
    /// Builds a reference hierarchy for `cfg` (`cfg.design` must be
    /// [`DesignKind::Cpp`]).
    ///
    /// # Panics
    /// Same construction constraints as [`crate::CppHierarchy::new`].
    pub fn new(cfg: HierarchyConfig) -> Self {
        assert_eq!(cfg.design, DesignKind::Cpp, "reference implements CPP");
        assert_eq!(cfg.l2.line_bytes(), 2 * cfg.l1.line_bytes());
        assert!(cfg.l1.line_words() <= 16 && cfg.l2.line_words() <= 32);
        let mut stats = HierarchyStats::new();
        stats.tag_overhead_bits = Self::tag_overhead_bits(&cfg);
        RefCppHierarchy {
            l1: RefLevel::new(&cfg.l1),
            l2: RefLevel::new(&cfg.l2),
            mem: MainMemory::new(),
            shadow: ShadowMemory::default(),
            shadow_stale: false,
            stats,
            cfg,
        }
    }

    /// The paper scheme's tag/metadata overhead over `cfg`'s geometry — a
    /// naive per-level sum, independently written from the optimized
    /// engine's [`crate::CppHierarchy::tag_overhead_bits`] so the difftest
    /// cross-checks the stamp too.
    fn tag_overhead_bits(cfg: &HierarchyConfig) -> u64 {
        let mut bits = 0u64;
        for geom in [&cfg.l1, &cfg.l2] {
            for _line in 0..geom.num_lines() {
                // One VC/VCP bit per word under the paper's scheme.
                bits += u64::from(geom.line_words());
            }
        }
        bits
    }

    /// Rebuilds the hashed shadow directory from the architectural image
    /// (after an external caller mutated it through `mem_mut`).
    fn rebuild_shadow(&mut self) {
        self.shadow.pages.clear();
        for page in self.mem.page_numbers() {
            if let Some(words) = self.mem.page_words(page) {
                self.shadow.pages.insert(page, Box::new(*words));
            }
        }
        self.shadow_stale = false;
    }

    /// The paper's CPP configuration (§4.1).
    pub fn paper() -> Self {
        Self::new(HierarchyConfig::paper(DesignKind::Cpp))
    }

    /// Bus cost in half-words: one per compressible word, two otherwise,
    /// plus one per affiliated word — decided word by word.
    fn compressed_transfer_hw(&self, base: Addr, mask: &WordMask, aff: &WordMask) -> u64 {
        let mut hw = 0u64;
        for i in 0..self.l1.words() {
            if mask[i as usize] {
                let a = base + i * 4;
                hw += if is_compressible(self.shadow.read(a), a) {
                    1
                } else {
                    2
                };
            }
        }
        hw + count(aff)
    }

    fn serve_masks(&self, avail32: &WordMask, l1_base: Addr) -> (WordMask, WordMask) {
        let shift = self.l2.geom.word_offset(l1_base) as usize; // 0 or 16
        let mut my = NO_WORDS;
        let mut other = NO_WORDS;
        for i in 0..16 {
            my[i] = avail32[shift + i];
            other[i] = avail32[(shift ^ 16) + i];
        }
        let pair = self.l1.pair_base(l1_base);
        let my_comp = ref_compress_mask(&self.shadow, l1_base, self.l1.words());
        let other_comp = ref_compress_mask(&self.shadow, pair, self.l1.words());
        let mut aff = NO_WORDS;
        for i in 0..16 {
            aff[i] = other[i] && other_comp[i] && (my_comp[i] || !my[i]);
        }
        (my, aff)
    }

    fn l2_request(&mut self, l1_base: Addr, need_off: u32, is_write: bool) -> RefL2Response {
        if is_write {
            self.stats.l2.writes += 1;
        } else {
            self.stats.l2.reads += 1;
        }
        let lat = self.cfg.latency;
        let need = (self.l2.geom.word_offset(l1_base) + need_off) as usize;

        if let Some(idx) = self.l2.lookup(l1_base) {
            let f = self.l2.lines[idx].flags;
            if f.pa[need] {
                self.l2.touch(idx);
                let (avail, aff) = self.serve_masks(&f.pa, l1_base);
                return RefL2Response {
                    avail,
                    aff,
                    latency: lat.l2_hit,
                    source: HitSource::L2,
                };
            }
            self.stats.l2.partial_line_misses += 1;
        } else if let Some(aidx) = self.l2.lookup_affiliated(l1_base) {
            let f = self.l2.lines[aidx].flags;
            if f.aa[need] {
                self.l2.touch(aidx);
                self.stats.l2.affiliated_hits += 1;
                let (avail, aff) = self.serve_masks(&f.aa, l1_base);
                return RefL2Response {
                    avail,
                    aff,
                    latency: lat.l2_hit,
                    source: HitSource::L2,
                };
            }
        }

        if is_write {
            self.stats.l2.write_misses += 1;
        } else {
            self.stats.l2.read_misses += 1;
        }
        self.fetch_fill_l2(l1_base);
        #[expect(clippy::expect_used, reason = "fetch_fill_l2 just installed the line")]
        let idx = self.l2.lookup(l1_base).expect("just filled");
        let pa = self.l2.lines[idx].flags.pa;
        let (avail, aff) = self.serve_masks(&pa, l1_base);
        RefL2Response {
            avail,
            aff,
            latency: lat.memory,
            source: HitSource::Memory,
        }
    }

    fn fetch_fill_l2(&mut self, addr: Addr) {
        let base = self.l2.geom.line_base(addr);
        let words = self.l2.words();
        self.stats.mem_bus.fetch_words(u64::from(words));

        let comp = ref_compress_mask(&self.shadow, base, words);
        let pair = self.l2.pair_base(base);
        let pair_comp = ref_compress_mask(&self.shadow, pair, words);
        let mut aa = NO_WORDS;
        for i in 0..MAX_WORDS {
            aa[i] = comp[i] && pair_comp[i];
        }
        if self.l2.lookup(pair).is_some() {
            self.stats.prefetches_discarded += count(&aa);
            aa = NO_WORDS;
        }

        if let Some(idx) = self.l2.lookup(base) {
            let mut full = NO_WORDS;
            for slot in full.iter_mut().take(words as usize) {
                *slot = true;
            }
            self.l2.merge_primary_words(&self.shadow, idx, &full);
            let f = &mut self.l2.lines[idx].flags;
            for i in 0..MAX_WORDS {
                f.aa[i] = aa[i] && (f.vcp[i] || !f.pa[i]);
            }
            let issued = count(&f.aa);
            self.l2.touch(idx);
            self.stats.prefetches_issued += issued;
        } else {
            self.l2.take_affiliated(base);
            let flags = RefFlags::full_primary(words, comp, aa);
            self.stats.prefetches_issued += count(&flags.aa);
            let victim = self.l2.install_primary(base, flags, false);
            self.handle_l2_victim(victim);
        }
    }

    fn mem_writeback_hw(&self, base: Addr, mask: &WordMask) -> u64 {
        if !self.cfg.compress_writebacks {
            return 2 * count(mask);
        }
        let mut hw = 0u64;
        let mut a = base;
        for &present in mask.iter() {
            if present {
                hw += if is_compressible(self.shadow.read(a), a) {
                    1
                } else {
                    2
                };
            }
            a = a.wrapping_add(4);
        }
        hw
    }

    fn handle_l2_victim(&mut self, victim: Option<RefVictim>) {
        let Some(v) = victim else { return };
        self.stats.prefetches_discarded += count(&v.flags.aa);
        if v.dirty {
            let hw = self.mem_writeback_hw(v.base, &v.flags.pa);
            self.stats.mem_bus.writeback_halfwords(hw);
        }
        let parked = self.l2.park(&self.shadow, v.base, &v.flags.pa);
        if parked > 0 {
            self.stats.parked_lines += 1;
        }
    }

    fn l2_writeback(&mut self, l1_base: Addr, mask16: &WordMask) {
        let hw = self.compressed_transfer_hw(l1_base, mask16, &NO_WORDS);
        self.stats.l1_l2_bus.writeback_halfwords(hw);
        let shift = self.l2.geom.word_offset(l1_base) as usize;
        let mut mask32 = NO_WORDS;
        for i in 0..16 {
            mask32[shift + i] = mask16[i];
        }

        if let Some(idx) = self.l2.lookup(l1_base) {
            let displaced = self.l2.merge_primary_words(&self.shadow, idx, &mask32);
            self.stats.compressibility_evictions += displaced;
            self.l2.lines[idx].dirty = true;
            return;
        }
        let l2_base = self.l2.geom.line_base(l1_base);
        if self.l2.lookup_affiliated(l1_base).is_some() {
            let aa = self.l2.take_affiliated(l2_base);
            if any(&aa) {
                self.stats.promotions += 1;
                let comp = ref_compress_mask(&self.shadow, l2_base, self.l2.words());
                let mut flags = RefFlags::empty();
                for i in 0..MAX_WORDS {
                    flags.pa[i] = aa[i];
                    flags.vcp[i] = aa[i] && comp[i];
                }
                let victim = self.l2.install_primary(l2_base, flags, false);
                self.handle_l2_victim(victim);
                #[expect(clippy::expect_used, reason = "the line was just promoted into L2")]
                let idx = self.l2.lookup(l1_base).expect("just promoted");
                let displaced = self.l2.merge_primary_words(&self.shadow, idx, &mask32);
                self.stats.compressibility_evictions += displaced;
                self.l2.lines[idx].dirty = true;
                return;
            }
        }
        let mut shifted = NO_WORDS;
        let shift2 = self.l2.geom.word_offset(l1_base) as usize;
        for i in 0..16 {
            shifted[shift2 + i] = mask16[i];
        }
        let hw = self.mem_writeback_hw(self.l2.geom.line_base(l1_base), &shifted);
        self.stats.mem_bus.writeback_halfwords(hw);
    }

    fn handle_l1_victim(&mut self, victim: Option<RefVictim>) {
        let Some(v) = victim else { return };
        self.stats.prefetches_discarded += count(&v.flags.aa);
        if v.dirty {
            self.l2_writeback(v.base, &v.flags.pa);
        }
        let parked = self.l1.park(&self.shadow, v.base, &v.flags.pa);
        if parked > 0 {
            self.stats.parked_lines += 1;
        }
    }

    fn fill_l1(&mut self, l1_base: Addr, resp: &RefL2Response) {
        let comp = ref_compress_mask(&self.shadow, l1_base, self.l1.words());
        let mut vcp = NO_WORDS;
        for i in 0..MAX_WORDS {
            vcp[i] = comp[i] && resp.avail[i];
        }
        let mut aa = resp.aff;
        let pair = self.l1.pair_base(l1_base);
        if any(&aa) && self.l1.lookup(pair).is_some() {
            self.stats.prefetches_discarded += count(&aa);
            aa = NO_WORDS;
        }
        let mut flags = RefFlags {
            pa: resp.avail,
            vcp,
            aa: NO_WORDS,
        };
        let cap = flags.affiliated_capacity(self.l1.words());
        for i in 0..MAX_WORDS {
            flags.aa[i] = aa[i] && cap[i];
        }
        self.stats.prefetches_issued += count(&flags.aa);
        let hw = self.compressed_transfer_hw(l1_base, &resp.avail, &flags.aa);
        self.stats.l1_l2_bus.fetch_halfwords(hw);
        let victim = self.l1.install_primary(l1_base, flags, false);
        self.handle_l1_victim(victim);
    }

    fn merge_aff_into_l1(&mut self, idx: usize, l1_base: Addr, aff_mask: &WordMask) {
        if !any(aff_mask) {
            return;
        }
        let pair = self.l1.pair_base(l1_base);
        if self.l1.lookup(pair).is_some() {
            self.stats.prefetches_discarded += count(aff_mask);
            return;
        }
        let added = self.l1.add_affiliated_words(idx, aff_mask);
        self.stats.prefetches_issued += count(&added);
        let mut dropped = 0u64;
        for i in 0..MAX_WORDS {
            if aff_mask[i] && !added[i] {
                dropped += 1;
            }
        }
        self.stats.prefetches_discarded += dropped;
    }

    fn do_primary_write(&mut self, idx: usize, addr: Addr, off: u32, value: Word) {
        self.mem.write(addr, value);
        self.shadow.write(addr, value);
        self.l1.lines[idx].dirty = true;
        let now_c = is_compressible(value, addr);
        let evicted = self.l1.update_primary_word(idx, off, now_c);
        self.stats.compressibility_evictions += evicted;
    }

    fn promote_l1(&mut self, addr: Addr) {
        let base = self.l1.geom.line_base(addr);
        let aa = self.l1.take_affiliated(base);
        self.stats.promotions += 1;
        let comp = ref_compress_mask(&self.shadow, base, self.l1.words());
        let mut flags = RefFlags::empty();
        for i in 0..MAX_WORDS {
            flags.pa[i] = aa[i];
            flags.vcp[i] = aa[i] && comp[i];
        }
        let victim = self.l1.install_primary(base, flags, false);
        self.handle_l1_victim(victim);
    }

    fn access(&mut self, addr: Addr, write: Option<Word>) -> AccessResult {
        if self.shadow_stale {
            self.rebuild_shadow();
        }
        let is_write = write.is_some();
        if is_write {
            self.stats.l1.writes += 1;
        } else {
            self.stats.l1.reads += 1;
        }
        let lat = self.cfg.latency;
        let off = self.l1.geom.word_offset(addr);
        let l1_base = self.l1.geom.line_base(addr);

        // 1. Primary location probe.
        if let Some(idx) = self.l1.lookup(addr) {
            if self.l1.lines[idx].flags.pa[off as usize] {
                self.l1.touch(idx);
                if let Some(v) = write {
                    self.do_primary_write(idx, addr, off, v);
                }
                return AccessResult {
                    latency: lat.l1_hit,
                    source: HitSource::L1,
                };
            }
            self.stats.l1.partial_line_misses += 1;
            if is_write {
                self.stats.l1.write_misses += 1;
            } else {
                self.stats.l1.read_misses += 1;
            }
            let resp = self.l2_request(l1_base, off, is_write);
            let displaced = self.l1.merge_primary_words(&self.shadow, idx, &resp.avail);
            self.stats.compressibility_evictions += displaced;
            self.merge_aff_into_l1(idx, l1_base, &resp.aff);
            let hw = self.compressed_transfer_hw(l1_base, &resp.avail, &NO_WORDS);
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

        // 2. Affiliated location probe.
        if let Some(aidx) = self.l1.lookup_affiliated(addr) {
            if self.l1.lines[aidx].flags.aa[off as usize] {
                self.stats.l1.affiliated_hits += 1;
                match write {
                    None => self.l1.touch(aidx),
                    Some(v) => {
                        self.promote_l1(addr);
                        #[expect(
                            clippy::expect_used,
                            reason = "promote_l1 just moved the line to its primary place"
                        )]
                        let idx = self.l1.lookup(addr).expect("just promoted");
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
        self.fill_l1(l1_base, &resp);
        if let Some(v) = write {
            #[expect(clippy::expect_used, reason = "fill_l1 just installed the line")]
            let idx = self.l1.lookup(addr).expect("just filled");
            self.do_primary_write(idx, addr, off, v);
        }
        AccessResult {
            latency: resp.latency,
            source: resp.source,
        }
    }
}

impl CacheSim for RefCppHierarchy {
    fn read(&mut self, addr: Addr) -> AccessResult {
        self.access(addr, None)
    }

    fn write(&mut self, addr: Addr, value: Word) -> AccessResult {
        self.access(addr, Some(value))
    }

    fn probe_l1(&self, addr: Addr) -> bool {
        let off = self.l1.geom.word_offset(addr) as usize;
        if let Some(idx) = self.l1.lookup(addr) {
            if self.l1.lines[idx].flags.pa[off] {
                return true;
            }
        }
        if let Some(aidx) = self.l1.lookup_affiliated(addr) {
            if self.l1.lines[aidx].flags.aa[off] {
                return true;
            }
        }
        false
    }

    fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
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
        self.shadow_stale = true;
        &mut self.mem
    }

    fn name(&self) -> &'static str {
        "CPP-ref"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CppHierarchy;

    fn both() -> (CppHierarchy, RefCppHierarchy) {
        (CppHierarchy::paper(), RefCppHierarchy::paper())
    }

    /// Drives both engines with the same access and asserts identical
    /// results.
    fn step(opt: &mut CppHierarchy, rf: &mut RefCppHierarchy, addr: Addr, write: Option<Word>) {
        let (a, b) = match write {
            Some(v) => (opt.write(addr, v), rf.write(addr, v)),
            None => (opt.read(addr), rf.read(addr)),
        };
        assert_eq!(a, b, "divergent result at {addr:#x} (write={write:?})");
    }

    #[test]
    fn reference_matches_optimized_on_sequential_walk() {
        let (mut opt, mut rf) = both();
        for i in 0..256u32 {
            opt.mem_mut().write(0x2_0000 + i * 4, 1);
            rf.mem_mut().write(0x2_0000 + i * 4, 1);
        }
        for i in 0..256u32 {
            step(&mut opt, &mut rf, 0x2_0000 + i * 4, None);
        }
        assert_eq!(opt.stats(), rf.stats());
    }

    #[test]
    fn reference_matches_optimized_on_torture_pattern() {
        let (mut opt, mut rf) = both();
        let mut x: u32 = 0xACE1;
        for i in 0..6000u32 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let addr = ((x & 0x7FFF) & !3) + 0x4_0000;
            if i % 3 == 0 {
                let v = if i % 6 == 0 { x } else { x & 0xFFF };
                step(&mut opt, &mut rf, addr, Some(v));
            } else {
                step(&mut opt, &mut rf, addr, None);
            }
        }
        assert_eq!(opt.stats(), rf.stats());
        opt.check_invariants().expect("optimized invariants");
    }

    #[test]
    fn reference_matches_optimized_probe() {
        let (mut opt, mut rf) = both();
        for i in 0..32u32 {
            opt.mem_mut().write(0x1000 + i * 4, 7);
            rf.mem_mut().write(0x1000 + i * 4, 7);
        }
        step(&mut opt, &mut rf, 0x1000, None);
        for a in [0x1000u32, 0x1040, 0x1080, 0x2000] {
            assert_eq!(opt.probe_l1(a), rf.probe_l1(a), "probe {a:#x}");
        }
    }
}
