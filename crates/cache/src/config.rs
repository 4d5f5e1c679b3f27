//! Hierarchy configuration: the paper's Figure 9 parameters and the five
//! evaluated designs.

use crate::geometry::CacheGeometry;

/// Access latencies in cycles, as *total* load-to-use latencies per level
/// (paper Figure 9: L1 hit 1, L1 miss 10, memory access 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// L1 hit latency.
    pub l1_hit: u32,
    /// Latency when satisfied by L2 (an L1 miss).
    pub l2_hit: u32,
    /// Latency when satisfied by memory (an L2 miss).
    pub memory: u32,
    /// Extra cycles for a hit in an affiliated location (CPP, paper §3.3:
    /// "returned in the next cycle").
    pub affiliated_extra: u32,
}

impl LatencyConfig {
    /// The paper's baseline latencies.
    pub fn paper() -> Self {
        LatencyConfig {
            l1_hit: 1,
            l2_hit: 10,
            memory: 100,
            affiliated_extra: 1,
        }
    }

    /// The Figure 14 variant: every *miss* penalty halved (hit latency
    /// unchanged), giving `S_enhanced = 2` for the Amdahl estimate.
    pub fn halved_miss_penalty(self) -> Self {
        LatencyConfig {
            l1_hit: self.l1_hit,
            l2_hit: (self.l2_hit / 2).max(self.l1_hit),
            memory: (self.memory / 2).max(self.l1_hit),
            affiliated_extra: self.affiliated_extra,
        }
    }
}

impl Default for LatencyConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The five cache designs evaluated in the paper (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignKind {
    /// Baseline cache: L1 8 KB direct-mapped / 64 B, L2 64 KB 2-way / 128 B.
    Bc,
    /// Baseline + compressed buses. Identical timing to BC, lower traffic.
    Bcc,
    /// Higher-associativity cache: L1 2-way, L2 4-way.
    Hac,
    /// Baseline + prefetch-on-miss with 8-entry (L1) and 32-entry (L2)
    /// fully-associative LRU prefetch buffers.
    Bcp,
    /// Compression-enabled partial cache line prefetching (the paper's
    /// contribution).
    Cpp,
}

impl DesignKind {
    /// All five designs in the paper's presentation order.
    pub const ALL: [DesignKind; 5] = [
        DesignKind::Bc,
        DesignKind::Bcc,
        DesignKind::Hac,
        DesignKind::Bcp,
        DesignKind::Cpp,
    ];

    /// The design's short name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            DesignKind::Bc => "BC",
            DesignKind::Bcc => "BCC",
            DesignKind::Hac => "HAC",
            DesignKind::Bcp => "BCP",
            DesignKind::Cpp => "CPP",
        }
    }

    /// Resolves a design by its figure name, case-insensitively.
    pub fn from_name(name: &str) -> Option<DesignKind> {
        Self::ALL
            .into_iter()
            .find(|d| d.name().eq_ignore_ascii_case(name.trim()))
    }
}

/// Full configuration of one hierarchy instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Which design to instantiate.
    pub design: DesignKind,
    /// L1 data-cache geometry.
    pub l1: CacheGeometry,
    /// L2 cache geometry.
    pub l2: CacheGeometry,
    /// Latency parameters.
    pub latency: LatencyConfig,
    /// L1 prefetch-buffer entries (BCP only).
    pub l1_prefetch_entries: u32,
    /// L2 prefetch-buffer entries (BCP only).
    pub l2_prefetch_entries: u32,
    /// CPP extension: transfer write-backs to memory in compressed form
    /// (the paper spends freed bandwidth only on fetch-side prefetching;
    /// `true` additionally shrinks the write-back stream, a natural
    /// future-work knob measured by the ablation bench).
    pub compress_writebacks: bool,
}

impl HierarchyConfig {
    /// The paper's configuration for `design` (Figure 9 and §4.1).
    pub fn paper(design: DesignKind) -> Self {
        let (l1_assoc, l2_assoc) = match design {
            DesignKind::Hac => (2, 4),
            _ => (1, 2),
        };
        HierarchyConfig {
            design,
            l1: CacheGeometry::new(8 * 1024, l1_assoc, 64),
            l2: CacheGeometry::new(64 * 1024, l2_assoc, 128),
            latency: LatencyConfig::paper(),
            l1_prefetch_entries: 8,
            l2_prefetch_entries: 32,
            compress_writebacks: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_latencies() {
        let l = LatencyConfig::paper();
        assert_eq!(
            (l.l1_hit, l.l2_hit, l.memory, l.affiliated_extra),
            (1, 10, 100, 1)
        );
    }

    #[test]
    fn halved_penalty_keeps_hit_latency() {
        let l = LatencyConfig::paper().halved_miss_penalty();
        assert_eq!(l.l1_hit, 1);
        assert_eq!(l.l2_hit, 5);
        assert_eq!(l.memory, 50);
    }

    #[test]
    fn halving_never_goes_below_hit_latency() {
        let l = LatencyConfig {
            l1_hit: 3,
            l2_hit: 4,
            memory: 5,
            affiliated_extra: 1,
        }
        .halved_miss_penalty();
        assert!(l.l2_hit >= l.l1_hit);
        assert!(l.memory >= l.l1_hit);
    }

    #[test]
    fn hac_doubles_both_associativities() {
        let bc = HierarchyConfig::paper(DesignKind::Bc);
        let hac = HierarchyConfig::paper(DesignKind::Hac);
        assert_eq!(bc.l1.assoc(), 1);
        assert_eq!(bc.l2.assoc(), 2);
        assert_eq!(hac.l1.assoc(), 2);
        assert_eq!(hac.l2.assoc(), 4);
        // Same sizes and line sizes.
        assert_eq!(bc.l1.size_bytes(), hac.l1.size_bytes());
        assert_eq!(bc.l2.line_bytes(), hac.l2.line_bytes());
    }

    #[test]
    fn paper_l2_block_is_twice_l1_block() {
        let c = HierarchyConfig::paper(DesignKind::Cpp);
        assert_eq!(c.l2.line_bytes(), 2 * c.l1.line_bytes());
    }

    #[test]
    fn design_names_match_paper() {
        let names: Vec<_> = DesignKind::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(names, ["BC", "BCC", "HAC", "BCP", "CPP"]);
    }

    #[test]
    fn from_name_roundtrips_and_ignores_case() {
        for d in DesignKind::ALL {
            assert_eq!(DesignKind::from_name(d.name()), Some(d));
            assert_eq!(DesignKind::from_name(&d.name().to_lowercase()), Some(d));
        }
        assert_eq!(DesignKind::from_name(" cpp "), Some(DesignKind::Cpp));
        assert_eq!(DesignKind::from_name("xyz"), None);
    }

    #[test]
    fn prefetch_buffer_sizes_match_paper() {
        let c = HierarchyConfig::paper(DesignKind::Bcp);
        assert_eq!(c.l1_prefetch_entries, 8);
        assert_eq!(c.l2_prefetch_entries, 32);
    }
}
