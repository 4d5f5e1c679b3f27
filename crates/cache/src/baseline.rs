//! The conventional two-level hierarchy every non-CPP design shares.
//!
//! [`TwoLevel`] owns the whole walk (SimpleScalar-style): write-back,
//! write-allocate, true LRU, blocking misses, mostly-inclusive fills (an L2
//! miss fills both levels; no back-invalidation — an L1 victim whose line
//! has left L2 is written back to memory directly). A design is the
//! [`Side`] structure plugged in beside L1 and L2:
//!
//! * [`NoSide`] — **BC**, **BCC** and **HAC**. BCC differs from BC only in
//!   bus accounting (values cross the L1↔L2 and L2↔memory buses in
//!   compressed form), so the paper notes BC and BCC have identical timing;
//!   HAC is BC with doubled associativity at both levels, expressed purely
//!   through [`HierarchyConfig`] geometry.
//! * [`NextLine`](crate::prefetch::NextLine) — **BCP**'s prefetch buffers.
//! * [`Stride`](crate::stride::Stride) — **SPT**'s reference prediction
//!   table and prefetch buffer.
//! * [`Victim`](crate::victim::Victim) — **VC**'s victim buffer.
//!
//! Each design is a monomorphized instantiation, so BC's walk carries no
//! side-structure work at all.

use crate::config::{DesignKind, HierarchyConfig, LatencyConfig};
use crate::set_assoc::SetAssocCache;
use crate::stats::HierarchyStats;
use crate::{AccessResult, Addr, CacheSim, HitSource, Word};
use ccp_compress::bus_halfwords;
use ccp_mem::{LineView, MainMemory};

/// A small fully-associative LRU buffer of whole lines beside a cache
/// level: BCP's and SPT's prefetch buffers (clean lines) and VC's victim
/// buffer (lines keep their dirty bit).
///
/// Holds only line base addresses — like the tag arrays, data lives in the
/// functional memory image.
#[derive(Debug, Clone)]
pub struct LineBuffer {
    capacity: usize,
    /// `(line_base, dirty, lru_stamp)`; small and scanned linearly (4–32
    /// entries).
    entries: Vec<(Addr, bool, u64)>,
    clock: u64,
}

impl LineBuffer {
    /// Creates an empty buffer holding up to `capacity` lines.
    pub fn new(capacity: usize) -> Self {
        LineBuffer {
            capacity,
            entries: Vec::with_capacity(capacity),
            clock: 0,
        }
    }

    /// Whether the buffer currently holds `base`.
    pub fn contains(&self, base: Addr) -> bool {
        self.entries.iter().any(|&(b, _, _)| b == base)
    }

    /// Removes `base`, returning its dirty bit when it was held (a buffer
    /// hit moves the line into the cache proper).
    pub fn take(&mut self, base: Addr) -> Option<bool> {
        let pos = self.entries.iter().position(|&(b, _, _)| b == base)?;
        Some(self.entries.swap_remove(pos).1)
    }

    /// Inserts `base` with its dirty bit, evicting the LRU entry when full.
    /// Returns the evicted line `(base, dirty)`, if any. Inserting a held
    /// line just refreshes its LRU stamp (and ORs in `dirty`).
    pub fn insert(&mut self, base: Addr, dirty: bool) -> Option<(Addr, bool)> {
        self.clock += 1;
        if let Some(e) = self.entries.iter_mut().find(|(b, _, _)| *b == base) {
            e.1 |= dirty;
            e.2 = self.clock;
            return None;
        }
        let mut evicted = None;
        if self.entries.len() == self.capacity {
            #[expect(clippy::expect_used, reason = "the buffer is full, so non-empty")]
            let (pos, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, &(_, _, stamp))| stamp)
                .expect("buffer is full, so non-empty");
            let (b, d, _) = self.entries.swap_remove(pos);
            evicted = Some((b, d));
        }
        self.entries.push((base, dirty, self.clock));
        evicted
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A line an L1 miss found beside L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SideHit {
    /// A prefetched (clean) line: filled into L1 over the L1↔L2 bus at L1
    /// latency, counted in `l1.prefetch_buffer_hits` and not as a miss.
    Prefetched,
    /// A victim line swapped back with its dirty bit at L1 latency + 1,
    /// counted in `l1.victim_hits`; nothing crosses the L1↔L2 bus.
    Victim {
        /// Whether the line was dirty when L1 evicted it.
        dirty: bool,
    },
}

/// The structure beside L1 and L2 that tells one conventional design from
/// another. Every hook defaults to "nothing there", which is [`NoSide`].
pub trait Side {
    /// Design name reported by [`CacheSim::name`]; `None` reports the
    /// configuration's [`DesignKind`].
    const NAME: Option<&'static str> = None;

    /// Sees a load at `pc` touching `addr`, before the L1 lookup.
    fn on_load(&mut self, _pc: u32, _addr: Addr) {}

    /// Probes for L1 line `base` on an L1 miss; a hit removes the line.
    fn take_l1(&mut self, _base: Addr) -> Option<SideHit> {
        None
    }

    /// Whether the structure beside L1 holds line `base` (for
    /// [`CacheSim::probe_l1`]).
    fn holds_l1(&self, _base: Addr) -> bool {
        false
    }

    /// Takes L1's evicted line `(base, dirty)`; returns the line that goes
    /// on down the hierarchy, if any.
    fn on_l1_evict(&mut self, victim: (Addr, bool)) -> Option<(Addr, bool)> {
        Some(victim)
    }

    /// Runs once the access to L1 line `base` has completed; `missed` says
    /// whether it was a demand L1 miss (not a hit beside L1).
    fn after_access(&mut self, _lv: &mut Levels, _base: Addr, _missed: bool) {}

    /// The prefetch buffer beside L2: probed on every L2 miss and fed the
    /// next L2 line on a demand L2 miss.
    fn l2_buffer(&mut self) -> Option<&mut LineBuffer> {
        None
    }
}

/// No side structure: the **BC**, **BCC** and **HAC** hierarchies.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSide;

impl Side for NoSide {}

/// The state every conventional design shares: both tag arrays, the
/// architectural memory image and the counters.
#[derive(Debug, Clone)]
pub struct Levels {
    pub(crate) cfg: HierarchyConfig,
    l1: SetAssocCache<()>,
    l2: SetAssocCache<()>,
    mem: MainMemory,
    stats: HierarchyStats,
    /// BCC: values cross both buses in compressed form.
    compress_bus: bool,
}

impl Levels {
    /// The bus cost of transferring the `words`-long line at `base`, in
    /// half-words: always `2 × words` on a conventional bus,
    /// value-dependent on a compressed one, where the line is classified
    /// through one page walk.
    fn transfer(&self, base: Addr, words: u32) -> u64 {
        if !self.compress_bus {
            return u64::from(words) * 2;
        }
        let at = |i: u32| base.wrapping_add(4 * i);
        let cost = |i: u32, w: Word| bus_halfwords(w, at(i));
        match self.mem.line_view(base, words) {
            LineView::Resident(line) => (0..).zip(line).map(|(i, &w)| cost(i, w)).sum(),
            // An untouched page reads as zeros, and zero is a small value.
            LineView::Zero => u64::from(words),
            // Only a run not aligned to its own size crosses a page.
            LineView::Split => (0..words).map(|i| cost(i, self.mem.read(at(i)))).sum(),
        }
    }

    /// Ensures `addr`'s L2 line is resident, from `l2_pb` or from memory.
    /// Only a `demand` access counts in the L2 access and miss counters,
    /// and only a demand miss prefetches the next L2 line into `l2_pb`.
    #[inline]
    fn ensure_in_l2(
        &mut self,
        mut l2_pb: Option<&mut LineBuffer>,
        addr: Addr,
        is_write: bool,
        demand: bool,
    ) -> HitSource {
        if demand {
            if is_write {
                self.stats.l2.writes += 1;
            } else {
                self.stats.l2.reads += 1;
            }
        }
        if let Some(idx) = self.l2.lookup(addr) {
            self.l2.touch(idx);
            return HitSource::L2;
        }
        let base = self.cfg.l2.line_base(addr);
        if let Some(pb) = l2_pb.as_deref_mut() {
            if pb.take(base).is_some() {
                // Buffer hit: promote into L2; per the paper, not a miss. The
                // policy is strictly prefetch-on-miss, so a buffer hit does
                // not chain another prefetch.
                self.stats.l2.prefetch_buffer_hits += 1;
                self.install_l2(addr);
                return HitSource::L2;
            }
        }
        if demand {
            if is_write {
                self.stats.l2.write_misses += 1;
            } else {
                self.stats.l2.read_misses += 1;
            }
        }
        let hw = self.transfer(base, self.cfg.l2.line_words());
        self.stats.mem_bus.fetch_halfwords(hw);
        self.install_l2(addr);
        if let (true, Some(pb)) = (demand, l2_pb) {
            let next = base.wrapping_add(self.cfg.l2.line_bytes());
            if self.l2.lookup(next).is_none() && !pb.contains(next) {
                let hw = self.transfer(next, self.cfg.l2.line_words());
                self.stats.mem_bus.fetch_halfwords(hw);
                self.stats.prefetches_issued += 1;
                if pb.insert(next, false).is_some() {
                    self.stats.prefetches_discarded += 1;
                }
            }
        }
        HitSource::Memory
    }

    /// Inserts `addr`'s L2 line, writing a dirty L2 victim back to memory.
    fn install_l2(&mut self, addr: Addr) {
        if let (Some(ev), _) = self.l2.insert(addr, false, ()) {
            if ev.dirty {
                let hw = self.transfer(ev.base, self.cfg.l2.line_words());
                self.stats.mem_bus.writeback_halfwords(hw);
            }
        }
    }

    /// Writes dirty L1 line `base` back: into L2 when the line is still
    /// there, else (it left L2 while L1 held it) straight to memory.
    fn write_back_l1(&mut self, base: Addr) {
        let hw = self.transfer(base, self.cfg.l1.line_words());
        self.stats.l1_l2_bus.writeback_halfwords(hw);
        if let Some(idx) = self.l2.lookup(base) {
            self.l2.set_dirty(idx);
        } else {
            self.stats.mem_bus.writeback_halfwords(hw);
        }
    }

    /// Charges the L1↔L2 bus for a fetch of `addr`'s L1 line.
    fn fetch_l1_line(&mut self, addr: Addr) {
        let hw = self.transfer(self.cfg.l1.line_base(addr), self.cfg.l1.line_words());
        self.stats.l1_l2_bus.fetch_halfwords(hw);
    }

    /// Prefetches L1 line `base` into `l1_pb`, pulling it into L2 first
    /// (a non-demand access through `l2_pb`) unless it is already on chip.
    pub(crate) fn prefetch_l1(
        &mut self,
        l1_pb: &mut LineBuffer,
        l2_pb: Option<&mut LineBuffer>,
        base: Addr,
    ) {
        if self.l1.lookup(base).is_some() || l1_pb.contains(base) {
            return;
        }
        self.ensure_in_l2(l2_pb, base, false, false);
        self.fetch_l1_line(base);
        self.stats.prefetches_issued += 1;
        if l1_pb.insert(base, false).is_some() {
            self.stats.prefetches_discarded += 1;
        }
    }
}

/// A conventional two-level hierarchy with side structure `S`.
#[derive(Debug, Clone)]
pub struct TwoLevel<S> {
    lv: Levels,
    side: S,
}

/// The BC / BCC / HAC hierarchy.
pub type TwoLevelCache = TwoLevel<NoSide>;

impl TwoLevelCache {
    /// Builds the hierarchy for `cfg`. `cfg.design` must be one of
    /// [`DesignKind::Bc`], [`DesignKind::Bcc`] or [`DesignKind::Hac`].
    pub fn new(cfg: HierarchyConfig) -> Self {
        assert!(
            matches!(
                cfg.design,
                DesignKind::Bc | DesignKind::Bcc | DesignKind::Hac
            ),
            "TwoLevelCache only implements BC/BCC/HAC, got {:?}",
            cfg.design
        );
        Self::with_side(cfg, NoSide)
    }

    /// Convenience constructor for the paper's configuration of `design`.
    pub fn paper(design: DesignKind) -> Self {
        Self::new(HierarchyConfig::paper(design))
    }
}

impl<S: Side> TwoLevel<S> {
    /// Builds the hierarchy for `cfg` with `side` beside L1/L2. The buses
    /// carry compressed values when `cfg.design` is [`DesignKind::Bcc`].
    pub(crate) fn with_side(cfg: HierarchyConfig, side: S) -> Self {
        TwoLevel {
            lv: Levels {
                l1: SetAssocCache::new(cfg.l1),
                l2: SetAssocCache::new(cfg.l2),
                mem: MainMemory::new(),
                stats: HierarchyStats::new(),
                compress_bus: cfg.design == DesignKind::Bcc,
                cfg,
            },
            side,
        }
    }

    /// The side structure (tests).
    #[cfg(test)]
    pub(crate) fn side(&self) -> &S {
        &self.side
    }

    /// Installs `addr`'s L1 line with `dirty` state and sends L1's victim
    /// to the side structure, writing back whatever comes out dirty.
    fn fill_l1(&mut self, addr: Addr, dirty: bool) {
        if let (Some(ev), _) = self.lv.l1.insert(addr, dirty, ()) {
            if let Some((base, true)) = self.side.on_l1_evict((ev.base, ev.dirty)) {
                self.lv.write_back_l1(base);
            }
        }
    }

    fn access(&mut self, addr: Addr, write: Option<Word>, pc: u32) -> AccessResult {
        debug_assert_eq!(addr & 3, 0, "unaligned access at {addr:#x}");
        let is_write = write.is_some();
        if is_write {
            self.lv.stats.l1.writes += 1;
        } else {
            self.lv.stats.l1.reads += 1;
            self.side.on_load(pc, addr);
        }
        let lat = self.lv.cfg.latency;
        let base = self.lv.cfg.l1.line_base(addr);
        let mut missed = false;
        let (latency, source) = if let Some(idx) = self.lv.l1.lookup(addr) {
            self.lv.l1.touch(idx);
            if is_write {
                self.lv.l1.set_dirty(idx);
            }
            (lat.l1_hit, HitSource::L1)
        } else {
            let (dirty, hit) = match self.side.take_l1(base) {
                Some(SideHit::Victim { dirty }) => {
                    self.lv.stats.l1.victim_hits += 1;
                    (dirty, (lat.l1_hit + 1, HitSource::L1))
                }
                Some(SideHit::Prefetched) => {
                    self.lv.stats.l1.prefetch_buffer_hits += 1;
                    self.lv.fetch_l1_line(addr);
                    (false, (lat.l1_hit, HitSource::L1PrefetchBuffer))
                }
                None => {
                    missed = true;
                    if is_write {
                        self.lv.stats.l1.write_misses += 1;
                    } else {
                        self.lv.stats.l1.read_misses += 1;
                    }
                    let l2_pb = self.side.l2_buffer();
                    let source = self.lv.ensure_in_l2(l2_pb, addr, is_write, true);
                    self.lv.fetch_l1_line(addr);
                    let latency = match source {
                        HitSource::L2 => lat.l2_hit,
                        _ => lat.memory,
                    };
                    (false, (latency, source))
                }
            };
            self.fill_l1(addr, dirty || is_write);
            hit
        };
        if let Some(v) = write {
            self.lv.mem.write(addr, v);
        }
        self.side.after_access(&mut self.lv, base, missed);
        AccessResult { latency, source }
    }
}

impl<S: Side> CacheSim for TwoLevel<S> {
    fn read(&mut self, addr: Addr) -> AccessResult {
        self.access(addr, None, 0)
    }

    fn write(&mut self, addr: Addr, value: Word) -> AccessResult {
        self.access(addr, Some(value), 0)
    }

    fn read_pc(&mut self, addr: Addr, pc: u32) -> AccessResult {
        self.access(addr, None, pc)
    }

    fn write_pc(&mut self, addr: Addr, value: Word, pc: u32) -> AccessResult {
        self.access(addr, Some(value), pc)
    }

    fn probe_l1(&self, addr: Addr) -> bool {
        self.lv.l1.lookup(addr).is_some() || self.side.holds_l1(self.lv.cfg.l1.line_base(addr))
    }

    fn stats(&self) -> &HierarchyStats {
        &self.lv.stats
    }

    fn reset_stats(&mut self) {
        self.lv.stats.reset();
    }

    fn latencies(&self) -> LatencyConfig {
        self.lv.cfg.latency
    }

    fn set_latencies(&mut self, lat: LatencyConfig) {
        self.lv.cfg.latency = lat;
    }

    fn mem(&self) -> &MainMemory {
        &self.lv.mem
    }

    fn mem_mut(&mut self) -> &mut MainMemory {
        &mut self.lv.mem
    }

    fn name(&self) -> &'static str {
        S::NAME.unwrap_or(self.lv.cfg.design.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bc() -> TwoLevelCache {
        TwoLevelCache::paper(DesignKind::Bc)
    }

    #[test]
    fn cold_read_goes_to_memory_then_hits() {
        let mut c = bc();
        c.mem_mut().write(0x1000, 77);
        let r = c.read(0x1000);
        assert_eq!(r.source, HitSource::Memory);
        assert_eq!(r.latency, 100);
        let r2 = c.read(0x1000);
        assert_eq!(r2.source, HitSource::L1);
        assert_eq!(r2.latency, 1);
        assert_eq!(c.stats().l1.read_misses, 1);
        assert_eq!(c.stats().l2.read_misses, 1);
    }

    #[test]
    fn spatial_locality_hits_within_line() {
        let mut c = bc();
        c.read(0x2000);
        for off in (4..64).step_by(4) {
            let r = c.read(0x2000 + off);
            assert_eq!(r.source, HitSource::L1, "offset {off}");
        }
        assert_eq!(c.stats().l1.read_misses, 1);
    }

    #[test]
    fn l2_hit_after_l1_conflict() {
        let mut c = bc();
        c.read(0x0000);
        c.read(8 * 1024); // evicts 0x0000 from L1 (same set), L2 keeps both
        let r = c.read(0x0000);
        assert_eq!(r.source, HitSource::L2);
        assert_eq!(r.latency, 10);
    }

    #[test]
    fn write_allocates_and_dirties() {
        let mut c = bc();
        let r = c.write(0x3000, 0xAAAA_BBBB);
        assert_eq!(r.source, HitSource::Memory);
        assert_eq!(c.mem().read(0x3000), 0xAAAA_BBBB);
        assert_eq!(c.stats().l1.write_misses, 1);
        // Subsequent read hits L1.
        let r2 = c.read(0x3000);
        assert_eq!(r2.source, HitSource::L1);
    }

    #[test]
    fn memory_traffic_counts_full_l2_lines_for_bc() {
        let mut c = bc();
        c.read(0x4000);
        // One L2 fetch of 32 words = 64 half-words.
        assert_eq!(c.stats().mem_bus.in_halfwords, 64);
        assert_eq!(c.stats().mem_bus.out_halfwords, 0);
    }

    #[test]
    fn bcc_traffic_is_compressed_but_timing_identical() {
        let mut bc = TwoLevelCache::paper(DesignKind::Bc);
        let mut bcc = TwoLevelCache::paper(DesignKind::Bcc);
        // Fill one line with small (compressible) values.
        for i in 0..32 {
            bc.mem_mut().write(0x8000 + i * 4, 5);
            bcc.mem_mut().write(0x8000 + i * 4, 5);
        }
        let rb = bc.read(0x8000);
        let rc = bcc.read(0x8000);
        assert_eq!(rb.latency, rc.latency, "BCC must not change timing");
        assert_eq!(bc.stats().mem_bus.in_halfwords, 64);
        assert_eq!(bcc.stats().mem_bus.in_halfwords, 32, "all words compressed");
    }

    #[test]
    fn bcc_traffic_mixed_compressibility() {
        let mut c = TwoLevelCache::paper(DesignKind::Bcc);
        // Half the L2 line small values, half incompressible.
        for i in 0..16 {
            c.mem_mut().write(0x8000 + i * 4, 5);
        }
        for i in 16..32 {
            c.mem_mut().write(0x8000 + i * 4, 0xDEAD_0000 + i);
        }
        c.read(0x8000);
        assert_eq!(c.stats().mem_bus.in_halfwords, 16 + 32);
    }

    #[test]
    fn bcc_transfer_equals_the_per_word_fold() {
        let mut c = TwoLevelCache::paper(DesignKind::Bcc);
        // Small, same-chunk pointer, incompressible and zero words.
        let words = [5, 0x4000_1230, 0xDEAD_BEEF, 0, 0xFFFF_8000, 0x7FFF_0000];
        let (resident, untouched, top) = (0x4000_0080, 0x9_0000, 0xFFFF_FF80);
        for (i, &w) in words.iter().cycle().take(32).enumerate() {
            c.mem_mut().write(resident + 4 * i as u32, w);
            c.mem_mut().write(top + 4 * i as u32, w);
        }
        let hw = |a: u32| bus_halfwords(c.mem().read(a), a);
        for base in [resident, untouched, top] {
            for n in [16, 32] {
                let fold: u64 = (0..n).map(|i| hw(base + 4 * i)).sum();
                assert_eq!(c.lv.transfer(base, n), fold, "line {base:#x}, {n} words");
            }
        }
    }

    #[test]
    fn dirty_l2_eviction_writes_back() {
        let mut c = bc();
        c.write(0x0000, 0xFFFF_0001); // dirty in L1, line in L2
                                      // Evict from L1 (same L1 set), forcing write-back into L2 (dirty).
        c.read(8 * 1024);
        // Now thrash L2 set of 0x0000: L2 is 64K 2-way, 128B lines → stride 32K.
        c.read(32 * 1024);
        c.read(64 * 1024);
        // 0x0000's L2 line evicted dirty → memory write-back happened.
        assert!(
            c.stats().mem_bus.out_halfwords >= 64,
            "dirty L2 line write-back expected, got {}",
            c.stats().mem_bus.out_halfwords
        );
    }

    #[test]
    fn hac_reduces_conflict_misses() {
        let mut bc = TwoLevelCache::paper(DesignKind::Bc);
        let mut hac = TwoLevelCache::paper(DesignKind::Hac);
        // Two lines conflicting in a direct-mapped L1, accessed alternately.
        for _ in 0..100 {
            bc.read(0x0000);
            bc.read(8 * 1024);
            hac.read(0x0000);
            hac.read(8 * 1024);
        }
        assert!(bc.stats().l1.read_misses > 100, "BC thrashes");
        assert_eq!(hac.stats().l1.read_misses, 2, "HAC holds both lines");
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = bc();
        c.read(0x5000);
        c.reset_stats();
        assert_eq!(c.stats().l1.reads, 0);
        let r = c.read(0x5000);
        assert_eq!(r.source, HitSource::L1, "contents survive reset");
    }

    #[test]
    fn halved_latency_config_applies() {
        let mut c = bc();
        c.set_latencies(c.latencies().halved_miss_penalty());
        let r = c.read(0x9000);
        assert_eq!(r.latency, 50);
        let r2 = c.read(0x9000);
        assert_eq!(r2.latency, 1);
    }

    #[test]
    #[should_panic(expected = "only implements BC/BCC/HAC")]
    #[allow(unused_must_use)]
    fn rejects_cpp_design() {
        TwoLevelCache::new(HierarchyConfig::paper(DesignKind::Cpp));
    }

    #[test]
    fn write_back_preserves_values_through_eviction() {
        let mut c = bc();
        c.write(0x0000, 123);
        c.read(8 * 1024);
        c.read(32 * 1024);
        c.read(64 * 1024);
        c.read(0x0000);
        assert_eq!(c.mem().read(0x0000), 123, "value survives eviction");
    }
}
