//! **VC** — a victim cache after Jouppi (ISCA '90, the same paper the
//! evaluation's prefetch buffers come from; reference \[3\]).
//!
//! A small fully-associative buffer beside L1 holds recently evicted lines
//! (with their dirty state). An L1 miss that hits the buffer swaps the line
//! back for a one-cycle penalty instead of a trip to L2 — the classic
//! direct-mapped conflict-miss remedy, and the natural third point between
//! HAC (more ways everywhere) and CPP (parking evicted lines in their
//! affiliated location). Not part of the paper's evaluated set; used by the
//! conflict-miss extension experiment.
//!
//! A buffer hit counts in `l1.victim_hits`, and no fetch crosses the L1↔L2
//! bus. A line displaced from the buffer leaves like any L1 victim: written
//! back to L2 (or memory) when dirty, dropped when clean.

use crate::baseline::{LineBuffer, Side, SideHit, TwoLevel};
use crate::config::{DesignKind, HierarchyConfig};
use crate::Addr;

/// VC's side structure: the victim buffer beside L1.
#[derive(Debug, Clone)]
pub struct Victim {
    /// L1's recently evicted lines, with their dirty bits.
    buf: LineBuffer,
}

impl Side for Victim {
    const NAME: Option<&'static str> = Some("VC");

    fn take_l1(&mut self, base: Addr) -> Option<SideHit> {
        self.buf.take(base).map(|dirty| SideHit::Victim { dirty })
    }

    fn holds_l1(&self, base: Addr) -> bool {
        self.buf.contains(base)
    }

    fn on_l1_evict(&mut self, (base, dirty): (Addr, bool)) -> Option<(Addr, bool)> {
        self.buf.insert(base, dirty)
    }
}

/// The victim-cache hierarchy: BC plus an N-entry victim buffer beside L1.
pub type VictimHierarchy = TwoLevel<Victim>;

impl VictimHierarchy {
    /// Builds the hierarchy over the BC geometry with `entries` victim
    /// slots.
    pub fn new(cfg: HierarchyConfig, entries: usize) -> Self {
        Self::with_side(
            cfg,
            Victim {
                buf: LineBuffer::new(entries),
            },
        )
    }

    /// Jouppi's sweet spot: 4 victim lines on the paper's BC geometry.
    pub fn paper() -> Self {
        Self::new(HierarchyConfig::paper(DesignKind::Bc), 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheSim, HitSource};

    #[test]
    fn buffer_take_and_lru() {
        let mut vb = LineBuffer::new(2);
        assert!(vb.insert(0x100, false).is_none());
        assert!(vb.insert(0x200, true).is_none());
        assert_eq!(vb.insert(0x300, false), Some((0x100, false)));
        assert_eq!(vb.take(0x200), Some(true));
        assert_eq!(vb.take(0x200), None);
        assert_eq!(vb.len(), 1);
    }

    #[test]
    fn conflict_pair_ping_pongs_in_buffer() {
        let mut c = VictimHierarchy::paper();
        // Two lines in the same direct-mapped set.
        c.read(0x0000);
        c.read(8 * 1024);
        let misses_before = c.stats().l1.misses();
        for _ in 0..50 {
            c.read(0x0000);
            c.read(8 * 1024);
        }
        assert_eq!(
            c.stats().l1.misses(),
            misses_before,
            "all conflict accesses must hit the victim buffer"
        );
        assert_eq!(c.stats().l1.victim_hits, 100);
    }

    #[test]
    fn victim_hit_latency_is_swap_penalty() {
        let mut c = VictimHierarchy::paper();
        c.read(0x0000);
        c.read(8 * 1024);
        let r = c.read(0x0000);
        assert_eq!(r.latency, 2);
        assert_eq!(r.source, HitSource::L1);
    }

    #[test]
    fn dirty_state_survives_the_buffer() {
        let mut c = VictimHierarchy::paper();
        c.write(0x0000, 42);
        c.read(8 * 1024); // evict dirty line into the buffer
        assert!(c.side().buf.contains(0x0000));
        c.read(0x0000); // swap back
        assert_eq!(c.mem().read(0x0000), 42);
        // Push it through the buffer entirely: 5 distinct conflicting lines.
        for k in 1..=5u32 {
            c.read(k * 8 * 1024);
        }
        // Dirty write-back must have reached L2/memory accounting.
        assert!(
            c.stats().l1_l2_bus.out_halfwords > 0,
            "dirty victim eventually written back"
        );
        c.read(0x0000);
        assert_eq!(c.mem().read(0x0000), 42, "value survives the full path");
    }

    #[test]
    fn beats_bc_on_conflict_workload() {
        use crate::baseline::TwoLevelCache;
        let mut bc = TwoLevelCache::paper(DesignKind::Bc);
        let mut vc = VictimHierarchy::paper();
        let mut bc_lat = 0u64;
        let mut vc_lat = 0u64;
        for _ in 0..100 {
            for a in [0u32, 8 * 1024, 16 * 1024] {
                bc_lat += u64::from(bc.read(a).latency);
                vc_lat += u64::from(vc.read(a).latency);
            }
        }
        assert!(
            vc_lat * 2 < bc_lat,
            "3-way conflict in a DM cache: VC {vc_lat} vs BC {bc_lat}"
        );
    }

    #[test]
    fn probe_sees_buffer_contents() {
        let mut c = VictimHierarchy::paper();
        c.read(0x0000);
        c.read(8 * 1024);
        assert!(c.probe_l1(0x0000), "victim buffer counts as on-chip");
    }
}
