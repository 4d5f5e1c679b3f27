//! Per-level and hierarchy-wide statistics counters.

use ccp_mem::TrafficMeter;

ccp_mem::counters! {
    /// Counters for one cache level.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct LevelStats {
        /// Demand read accesses.
        pub reads: u64,
        /// Demand write accesses.
        pub writes: u64,
        /// Demand reads that missed this level.
        pub read_misses: u64,
        /// Demand writes that missed this level.
        pub write_misses: u64,
        /// Accesses satisfied from a prefetch buffer (BCP; not counted as
        /// misses, per the paper's accounting).
        pub prefetch_buffer_hits: u64,
        /// Accesses satisfied from an affiliated location (CPP; counted as hits
        /// with one extra cycle at L1).
        pub affiliated_hits: u64,
        /// Misses where the line's tag was resident but the requested word was
        /// not available (CPP partial lines).
        pub partial_line_misses: u64,
        /// Accesses satisfied from a victim buffer (the Jouppi victim-cache
        /// extension; counted as hits with a one-cycle swap penalty).
        pub victim_hits: u64,
    }

    /// Statistics for a whole two-level hierarchy.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct HierarchyStats {
        /// L1 data-cache counters.
        pub l1: LevelStats,
        /// L2 cache counters.
        pub l2: LevelStats,
        /// L2 ↔ memory bus (the paper's "memory traffic", Figure 10).
        pub mem_bus: TrafficMeter,
        /// L1 ↔ L2 on-chip bus (not reported in the paper; kept for analysis).
        pub l1_l2_bus: TrafficMeter,
        /// Prefetches issued (BCP buffer fills / CPP affiliated-word fills).
        pub prefetches_issued: u64,
        /// Prefetched lines or words discarded unused.
        pub prefetches_discarded: u64,
        /// CPP: lines promoted from an affiliated to their primary location.
        pub promotions: u64,
        /// CPP: evicted lines parked (partially) in their affiliated location.
        pub parked_lines: u64,
        /// CPP: affiliated words evicted because a primary word grew
        /// incompressible (§3.3 hazard).
        pub compressibility_evictions: u64,
        /// Tag/metadata SRAM the compression scheme spends across both levels,
        /// in bits (Touché-style static overhead model). Stamped once at
        /// hierarchy construction — a property of the geometry × scheme, not of
        /// the access stream — and re-stamped by the hierarchy after stats
        /// resets. Zero for the uncompressed baselines.
        pub tag_overhead_bits: u64,
    }
}

impl LevelStats {
    /// Total demand accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total demand misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Miss rate over demand accesses, in `[0, 1]`; 0 when idle.
    pub fn miss_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses() as f64 / a as f64
        }
    }
}

impl HierarchyStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Total memory traffic in half-word units (Figure 10's metric).
    pub fn memory_traffic_halfwords(&self) -> u64 {
        self.mem_bus.total_halfwords()
    }

    /// Field-wise merge of the counters of an independent run into this
    /// one: every event counter sums.
    ///
    /// `tag_overhead_bits` is the one non-event field (a property of
    /// geometry × scheme stamped at construction): both runs must report
    /// the same value and it carries through unchanged rather than
    /// summing.
    pub fn absorb_shard(&mut self, other: &HierarchyStats) {
        debug_assert!(
            self.tag_overhead_bits == other.tag_overhead_bits,
            "runs disagree on tag overhead: {} vs {}",
            self.tag_overhead_bits,
            other.tag_overhead_bits
        );
        let tag_overhead_bits = self.tag_overhead_bits;
        ccp_mem::add_counters(self, other);
        self.tag_overhead_bits = tag_overhead_bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccp_mem::Counters;

    #[test]
    fn miss_rate_of_idle_level_is_zero() {
        let s = LevelStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.accesses(), 0);
    }

    #[test]
    fn miss_rate_combines_reads_and_writes() {
        let s = LevelStats {
            reads: 6,
            writes: 4,
            read_misses: 2,
            write_misses: 3,
            ..Default::default()
        };
        assert_eq!(s.accesses(), 10);
        assert_eq!(s.misses(), 5);
        assert!((s.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hierarchy_reset_clears_everything() {
        let mut h = HierarchyStats::new();
        h.l1.reads = 5;
        h.mem_bus.fetch_words(16);
        h.promotions = 2;
        h.reset();
        assert_eq!(h, HierarchyStats::default());
        assert_eq!(h.memory_traffic_halfwords(), 0);
    }

    #[test]
    fn absorb_shard_into_itself_doubles_every_event_counter() {
        let mut h = HierarchyStats::new();
        let mut next = 0;
        h.visit_mut(&mut Vec::new(), &mut |_, v| {
            next += 1;
            *v = next;
        });
        let mut doubled = h;
        doubled.absorb_shard(&h);
        let mut expected = h;
        expected.visit_mut(&mut Vec::new(), &mut |_, v| *v *= 2);
        expected.tag_overhead_bits = h.tag_overhead_bits;
        assert_eq!(doubled, expected);
    }

    #[test]
    fn memory_traffic_tracks_both_directions() {
        let mut h = HierarchyStats::new();
        h.mem_bus.fetch_words(32);
        h.mem_bus.writeback_halfwords(10);
        assert_eq!(h.memory_traffic_halfwords(), 74);
    }
}
