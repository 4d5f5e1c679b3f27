//! **SPT** — stride prefetching with a reference prediction table, after
//! Baer & Chen, *An effective on-chip preloading scheme to reduce data
//! access penalty* (Supercomputing '91) — reference \[2\] of the paper.
//!
//! Not part of the paper's evaluated configurations, but its most prominent
//! related-work baseline: where BCP prefetches "next line" blindly, SPT
//! learns per-load strides and prefetches `addr + stride` once a load's
//! stride is steady. Implemented as the baseline hierarchy plus an RPT and
//! the same 8-entry L1 prefetch buffer, so the SPT-vs-BCP-vs-CPP comparison
//! isolates the *prediction policy*.
//!
//! The RPT trains on loads only (Baer-Chen's scheme keys on load
//! instructions), before the L1 lookup; the prefetch fires once the access
//! completes, hit or miss. Plain `read`/`write` carry PC 0.

use crate::baseline::{Levels, LineBuffer, Side, SideHit, TwoLevel};
use crate::config::{DesignKind, HierarchyConfig};
use crate::Addr;

/// Per-load-PC prediction state (the classic four-state automaton).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RptState {
    /// First sightings; stride not yet trusted.
    Initial,
    /// One confirmation away from steady, or cooling down.
    Transient,
    /// Stride confirmed: prefetch.
    Steady,
    /// Irregular: no prediction.
    NoPred,
}

/// One reference-prediction-table entry.
#[derive(Debug, Clone, Copy)]
struct RptEntry {
    tag: u32,
    prev_addr: Addr,
    stride: i64,
    state: RptState,
}

/// A direct-mapped reference prediction table indexed by load PC.
#[derive(Debug, Clone)]
pub struct ReferencePredictionTable {
    entries: Vec<Option<RptEntry>>,
    mask: u32,
}

impl ReferencePredictionTable {
    /// Creates a table with `entries` slots (a power of two).
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "RPT size must be a power of two");
        ReferencePredictionTable {
            entries: vec![None; entries],
            mask: entries as u32 - 1,
        }
    }

    /// Observes a load at `pc` touching `addr`; returns the predicted next
    /// address when the entry is steady.
    pub fn observe(&mut self, pc: u32, addr: Addr) -> Option<Addr> {
        let slot = ((pc >> 2) & self.mask) as usize;
        match &mut self.entries[slot] {
            Some(e) if e.tag == pc => {
                let new_stride = i64::from(addr) - i64::from(e.prev_addr);
                let correct = new_stride == e.stride;
                e.state = match (e.state, correct) {
                    (RptState::Initial, true) => RptState::Steady,
                    (RptState::Initial, false) => RptState::Transient,
                    (RptState::Steady, true) => RptState::Steady,
                    (RptState::Steady, false) => RptState::Initial,
                    (RptState::Transient, true) => RptState::Steady,
                    (RptState::Transient, false) => RptState::NoPred,
                    (RptState::NoPred, true) => RptState::Transient,
                    (RptState::NoPred, false) => RptState::NoPred,
                };
                if !correct && e.state != RptState::Steady {
                    e.stride = new_stride;
                }
                e.prev_addr = addr;
                if e.state == RptState::Steady && e.stride != 0 {
                    return Some((i64::from(addr) + e.stride) as u32);
                }
                None
            }
            other => {
                *other = Some(RptEntry {
                    tag: pc,
                    prev_addr: addr,
                    stride: 0,
                    state: RptState::Initial,
                });
                None
            }
        }
    }

    /// Current state of the entry for `pc`, if allocated (tests).
    pub fn state_of(&self, pc: u32) -> Option<RptState> {
        let slot = ((pc >> 2) & self.mask) as usize;
        self.entries[slot]
            .as_ref()
            .filter(|e| e.tag == pc)
            .map(|e| e.state)
    }
}

/// SPT's side structure: the RPT and an L1 prefetch buffer.
#[derive(Debug, Clone)]
pub struct Stride {
    /// The predictor.
    rpt: ReferencePredictionTable,
    /// The prefetch buffer beside L1.
    l1: LineBuffer,
    /// The current load's prediction, prefetched once the access completes.
    pending: Option<Addr>,
}

impl Side for Stride {
    const NAME: Option<&'static str> = Some("SPT");

    fn on_load(&mut self, pc: u32, addr: Addr) {
        self.pending = self.rpt.observe(pc, addr);
    }

    fn take_l1(&mut self, base: Addr) -> Option<SideHit> {
        self.l1.take(base).map(|_| SideHit::Prefetched)
    }

    fn holds_l1(&self, base: Addr) -> bool {
        self.l1.contains(base)
    }

    fn after_access(&mut self, lv: &mut Levels, _base: Addr, _missed: bool) {
        if let Some(target) = self.pending.take() {
            let base = lv.cfg.l1.line_base(target);
            lv.prefetch_l1(&mut self.l1, None, base);
        }
    }
}

/// The SPT hierarchy: BC plus an RPT-driven L1 prefetch buffer.
pub type StrideHierarchy = TwoLevel<Stride>;

impl StrideHierarchy {
    /// Builds an SPT hierarchy over the BC geometry with `rpt_entries`
    /// predictor slots and the BCP-sized L1 buffer.
    pub fn new(cfg: HierarchyConfig, rpt_entries: usize) -> Self {
        let side = Stride {
            rpt: ReferencePredictionTable::new(rpt_entries),
            l1: LineBuffer::new(cfg.l1_prefetch_entries as usize),
            pending: None,
        };
        Self::with_side(cfg, side)
    }

    /// The paper-comparable configuration: BC geometry, 64-entry RPT,
    /// 8-entry prefetch buffer.
    pub fn paper() -> Self {
        Self::new(HierarchyConfig::paper(DesignKind::Bc), 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheSim, HitSource};

    #[test]
    fn rpt_learns_a_constant_stride() {
        let mut rpt = ReferencePredictionTable::new(64);
        let pc = 0x40_0010;
        assert_eq!(rpt.observe(pc, 0x1000), None); // allocate
        assert_eq!(rpt.state_of(pc), Some(RptState::Initial));
        // Stride 0x40 twice: Initial(wrong stride 0→0x40)→Transient, then
        // correct → Steady with a prediction.
        assert_eq!(rpt.observe(pc, 0x1040), None);
        assert_eq!(rpt.state_of(pc), Some(RptState::Transient));
        assert_eq!(rpt.observe(pc, 0x1080), Some(0x10C0));
        assert_eq!(rpt.state_of(pc), Some(RptState::Steady));
        assert_eq!(rpt.observe(pc, 0x10C0), Some(0x1100));
    }

    #[test]
    fn rpt_negative_stride() {
        let mut rpt = ReferencePredictionTable::new(64);
        let pc = 0x40_0020;
        rpt.observe(pc, 0x2000);
        rpt.observe(pc, 0x1FC0);
        let p = rpt.observe(pc, 0x1F80);
        assert_eq!(p, Some(0x1F40));
    }

    #[test]
    fn rpt_irregular_goes_nopred() {
        let mut rpt = ReferencePredictionTable::new(64);
        let pc = 0x40_0030;
        for addr in [0x1000u32, 0x5004, 0x2008, 0x9a0c, 0x3010] {
            rpt.observe(pc, addr);
        }
        assert_eq!(rpt.state_of(pc), Some(RptState::NoPred));
    }

    #[test]
    fn rpt_zero_stride_never_prefetches() {
        let mut rpt = ReferencePredictionTable::new(64);
        let pc = 0x40_0040;
        for _ in 0..5 {
            assert_eq!(rpt.observe(pc, 0x7000), None);
        }
    }

    #[test]
    fn strided_walk_gets_covered() {
        let mut c = StrideHierarchy::paper();
        let pc = 0x40_0100;
        let mut pb_hits = 0;
        // 256-byte stride: next-line prefetch (BCP) can never catch this.
        for i in 0..64u32 {
            let r = c.read_pc(0x8_0000 + i * 256, pc);
            if r.source == HitSource::L1PrefetchBuffer {
                pb_hits += 1;
            }
        }
        assert!(
            pb_hits > 50,
            "steady 256B stride should be almost fully covered, got {pb_hits}"
        );
    }

    #[test]
    fn irregular_strides_never_prefetch() {
        let mut c = StrideHierarchy::paper();
        // Quadratic stride: never the same twice, so the automaton parks in
        // NoPred and issues nothing.
        for i in 0..32u32 {
            c.read_pc(0x9_0000 + i * i * 64, 0x40_0400);
        }
        assert_eq!(c.stats().prefetches_issued, 0);
        assert_eq!(c.side().rpt.state_of(0x40_0400), Some(RptState::NoPred));
    }

    #[test]
    fn functional_correctness_with_prefetching() {
        let mut c = StrideHierarchy::paper();
        for i in 0..128u32 {
            c.write_pc(0xA_0000 + i * 128, i, 0x40_0200);
        }
        for i in 0..128u32 {
            c.read_pc(0xA_0000 + i * 128, 0x40_0204);
            assert_eq!(c.mem().read(0xA_0000 + i * 128), i);
        }
    }

    #[test]
    fn prefetch_traffic_is_accounted() {
        let mut c = StrideHierarchy::paper();
        // Strides of 512 B: every prefetch pulls a fresh L2 line from memory.
        for i in 0..64u32 {
            c.read_pc(0xB_0000 + i * 512, 0x40_0300);
        }
        assert!(c.stats().prefetches_issued > 32);
        assert!(
            c.stats().mem_bus.in_transactions > 64,
            "prefetches must show on the memory bus"
        );
    }
}
