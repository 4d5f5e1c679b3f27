//! Generic set-associative tag array with true-LRU replacement.
//!
//! The array stores no data (the architectural image lives in
//! [`ccp_mem::MainMemory`]); each line carries a tag, a dirty bit and a
//! design-specific payload `T` — empty for the baseline designs, the
//! `PA`/`VCP`/`AA` flag bundle for CPP.
//!
//! Line state is held in structure-of-arrays form: the tag words a lookup
//! scans are contiguous per set (one or two cache lines of host memory for
//! the whole probe), and the colder dirty/LRU/payload columns are only
//! touched on the paths that need them. An empty way holds the
//! `INVALID` tag, which no address's tag can equal, so validity needs no
//! column of its own and a probe is one compare per way. The way-count and
//! set shift are precomputed so a probe is shift/mask arithmetic plus a
//! short contiguous scan.

use crate::geometry::CacheGeometry;
use crate::Addr;

/// The tag of an empty way: a tag drops at least the two offset bits of a
/// 4-byte line, so it is below 2^30 and never equals this value.
const INVALID: u32 = u32::MAX;

/// Information about a line displaced by [`SetAssocCache::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted<T> {
    /// Base byte address of the evicted line.
    pub base: Addr,
    /// Whether it was dirty.
    pub dirty: bool,
    /// Its design-specific state at eviction.
    pub extra: T,
}

/// A set-associative tag array.
#[derive(Debug, Clone)]
pub struct SetAssocCache<T> {
    geom: CacheGeometry,
    /// Ways per set (copied out of `geom` for the probe loop).
    assoc: usize,
    /// log2 of the way count: global index of `(set, way)` is
    /// `(set << assoc_shift) | way`.
    assoc_shift: u32,
    /// One tag per way; [`INVALID`] marks an empty way.
    tags: Vec<u32>,
    dirty: Vec<bool>,
    lru_stamp: Vec<u64>,
    extra: Vec<T>,
    clock: u64,
}

impl<T: Default + Clone> SetAssocCache<T> {
    /// Creates an empty (all-invalid) array for `geom`.
    pub fn new(geom: CacheGeometry) -> Self {
        let n = geom.num_lines() as usize;
        SetAssocCache {
            geom,
            assoc: geom.assoc() as usize,
            assoc_shift: geom.assoc().trailing_zeros(),
            tags: vec![INVALID; n],
            dirty: vec![false; n],
            lru_stamp: vec![0; n],
            extra: vec![T::default(); n],
            clock: 0,
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Global line index of the first way of `addr`'s set.
    #[inline]
    fn set_base(&self, addr: Addr) -> usize {
        (self.geom.set_index(addr) << self.assoc_shift) as usize
    }

    /// Looks up the line containing `addr`. Returns its global line index on
    /// a tag match. Does **not** update LRU state.
    #[inline]
    pub fn lookup(&self, addr: Addr) -> Option<usize> {
        let tag = self.geom.tag(addr);
        let base = self.set_base(addr);
        (base..base + self.assoc).find(|&i| self.tags[i] == tag)
    }

    /// Marks line `idx` most-recently used.
    #[inline]
    pub fn touch(&mut self, idx: usize) {
        self.clock += 1;
        self.lru_stamp[idx] = self.clock;
    }

    /// Whether line `idx` holds a valid (primary) tag.
    #[inline]
    pub fn is_valid(&self, idx: usize) -> bool {
        self.tags[idx] != INVALID
    }

    /// Whether line `idx` is dirty.
    #[inline]
    pub fn is_dirty(&self, idx: usize) -> bool {
        self.dirty[idx]
    }

    /// Marks line `idx` dirty.
    #[inline]
    pub fn set_dirty(&mut self, idx: usize) {
        self.dirty[idx] = true;
    }

    /// Shared access to line `idx`'s design-specific payload.
    #[inline]
    pub fn extra(&self, idx: usize) -> &T {
        &self.extra[idx]
    }

    /// Mutable access to line `idx`'s design-specific payload.
    #[inline]
    pub fn extra_mut(&mut self, idx: usize) -> &mut T {
        &mut self.extra[idx]
    }

    /// Base byte address of the (valid) line at `idx`.
    #[inline]
    pub fn base_of(&self, idx: usize) -> Addr {
        let set = (idx >> self.assoc_shift) as u32;
        self.geom.base_from_tag_set(self.tags[idx], set)
    }

    /// The way that would be victimized in `addr`'s set: an invalid way if
    /// one exists, else the LRU way. Returns a global line index.
    pub fn victim_index(&self, addr: Addr) -> usize {
        let base = self.set_base(addr);
        let mut best = base;
        for i in base..base + self.assoc {
            if self.tags[i] == INVALID {
                return i;
            }
            if self.lru_stamp[i] < self.lru_stamp[best] {
                best = i;
            }
        }
        best
    }

    /// Installs the line containing `addr` (which must not already be
    /// resident), evicting the victim way. Returns the displaced line, if
    /// any, and the new line's global index.
    ///
    /// # Panics
    /// In debug builds, panics if the line is already resident (duplicate
    /// copies are always a design bug in these hierarchies).
    #[inline]
    pub fn insert(&mut self, addr: Addr, dirty: bool, extra: T) -> (Option<Evicted<T>>, usize) {
        debug_assert!(
            self.lookup(addr).is_none(),
            "line {:#x} inserted twice",
            self.geom.line_base(addr)
        );
        let idx = self.victim_index(addr);
        let evicted = if self.is_valid(idx) {
            Some(Evicted {
                base: self.base_of(idx),
                dirty: self.dirty[idx],
                extra: self.extra[idx].clone(),
            })
        } else {
            None
        };
        self.clock += 1;
        self.tags[idx] = self.geom.tag(addr);
        self.dirty[idx] = dirty;
        self.lru_stamp[idx] = self.clock;
        self.extra[idx] = extra;
        (evicted, idx)
    }

    /// Invalidates line `idx`, returning its prior state.
    pub fn invalidate(&mut self, idx: usize) -> Option<Evicted<T>> {
        if !self.is_valid(idx) {
            return None;
        }
        let ev = Evicted {
            base: self.base_of(idx),
            dirty: self.dirty[idx],
            extra: std::mem::take(&mut self.extra[idx]),
        };
        self.tags[idx] = INVALID;
        self.dirty[idx] = false;
        self.lru_stamp[idx] = 0;
        Some(ev)
    }

    /// Number of currently valid lines.
    pub fn valid_count(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }

    /// Iterates over the global indices of valid lines.
    pub fn iter_valid(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.tags.len()).filter(|&i| self.is_valid(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm_8k_64b() -> SetAssocCache<()> {
        SetAssocCache::new(CacheGeometry::new(8 * 1024, 1, 64))
    }

    fn assoc2_64k_128b() -> SetAssocCache<()> {
        SetAssocCache::new(CacheGeometry::new(64 * 1024, 2, 128))
    }

    #[test]
    fn empty_cache_misses_everything() {
        let c = dm_8k_64b();
        assert_eq!(c.lookup(0), None);
        assert_eq!(c.lookup(0xFFFF_FFC0), None);
        assert_eq!(c.valid_count(), 0);
    }

    #[test]
    fn empty_array_misses_the_top_word_under_every_paper_geometry() {
        use crate::config::{DesignKind, HierarchyConfig};
        for design in DesignKind::ALL {
            let cfg = HierarchyConfig::paper(design);
            for geom in [cfg.l1, cfg.l2] {
                let c: SetAssocCache<()> = SetAssocCache::new(geom);
                assert_eq!(c.lookup(0xFFFF_FFFC), None, "{design:?} {geom:?}");
            }
        }
    }

    #[test]
    fn insert_then_lookup_hits_whole_line() {
        let mut c = dm_8k_64b();
        let (ev, idx) = c.insert(0x1040, false, ());
        assert!(ev.is_none());
        for off in (0..64).step_by(4) {
            assert_eq!(c.lookup(0x1040 + off), Some(idx));
        }
        assert_eq!(c.lookup(0x1080), None);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = dm_8k_64b();
        c.insert(0x0040, true, ());
        // Same set: 8 KB stride.
        let (ev, _) = c.insert(0x0040 + 8 * 1024, false, ());
        let ev = ev.expect("conflict must evict");
        assert_eq!(ev.base, 0x0040);
        assert!(ev.dirty);
        assert_eq!(c.lookup(0x0040), None);
        assert!(c.lookup(0x0040 + 8 * 1024).is_some());
    }

    #[test]
    fn two_way_set_holds_two_conflicting_lines() {
        let mut c = assoc2_64k_128b();
        let stride = 64 * 1024 / 2; // same set, different tag
        c.insert(0x0080, false, ());
        let (ev, _) = c.insert(0x0080 + stride, false, ());
        assert!(ev.is_none());
        assert!(c.lookup(0x0080).is_some());
        assert!(c.lookup(0x0080 + stride).is_some());
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut c = assoc2_64k_128b();
        let stride = 64 * 1024 / 2;
        let (_, a) = c.insert(0x0080, false, ());
        c.insert(0x0080 + stride, false, ());
        // Touch the older line; the newer one becomes LRU.
        c.touch(a);
        let (ev, _) = c.insert(0x0080 + 2 * stride, false, ());
        assert_eq!(ev.unwrap().base, 0x0080 + stride);
        assert!(c.lookup(0x0080).is_some());
    }

    #[test]
    fn invalid_way_preferred_over_lru() {
        let mut c = assoc2_64k_128b();
        let stride = 64 * 1024 / 2;
        let (_, a) = c.insert(0x0080, false, ());
        c.invalidate(a);
        c.insert(0x0080 + stride, false, ());
        // One way invalid: inserting must not evict the valid line.
        let (ev, _) = c.insert(0x0080 + 2 * stride, false, ());
        assert!(ev.is_none());
    }

    #[test]
    fn base_of_reconstructs_address() {
        let mut c = assoc2_64k_128b();
        let (_, idx) = c.insert(0xABCD_EF80 & !0x7F, false, ());
        assert_eq!(c.base_of(idx), 0xABCD_EF80 & !0x7F);
    }

    #[test]
    fn invalidate_returns_state_and_clears() {
        let mut c = dm_8k_64b();
        let (_, idx) = c.insert(0x2000, true, ());
        let ev = c.invalidate(idx).unwrap();
        assert_eq!(ev.base, 0x2000);
        assert!(ev.dirty);
        assert_eq!(c.lookup(0x2000), None);
        assert!(c.invalidate(idx).is_none());
    }

    #[test]
    fn payload_travels_with_line() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(CacheGeometry::new(8 * 1024, 1, 64));
        let (_, idx) = c.insert(0x3000, false, 42);
        assert_eq!(*c.extra(idx), 42);
        *c.extra_mut(idx) = 7;
        let ev = c.insert(0x3000 + 8 * 1024, false, 0).0.unwrap();
        assert_eq!(ev.extra, 7);
    }

    #[test]
    fn iter_valid_yields_valid_indices_only() {
        let mut c = assoc2_64k_128b();
        let stride = 64 * 1024 / 2;
        let (_, a) = c.insert(0x0080, false, ());
        let (_, b) = c.insert(0x0080 + stride, false, ());
        let (_, d) = c.insert(0x4200, false, ());
        c.invalidate(b);
        let mut got: Vec<usize> = c.iter_valid().collect();
        got.sort_unstable();
        let mut want = vec![a, d];
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "inserted twice")]
    fn duplicate_insert_panics_in_debug() {
        let mut c = dm_8k_64b();
        c.insert(0x1000, false, ());
        c.insert(0x1004, false, ()); // same line
    }
}
