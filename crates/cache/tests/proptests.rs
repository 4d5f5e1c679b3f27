//! Property tests for the cache substrate: the set-associative array must
//! agree with a brute-force reference model, and every conventional
//! hierarchy (BC, BCC, HAC, BCP, SPT, VC) must behave as a memory and keep
//! its demand accounting consistent under arbitrary access patterns.

use ccp_cache::geometry::CacheGeometry;
use ccp_cache::set_assoc::SetAssocCache;
use ccp_cache::{
    BcpHierarchy, CacheSim, DesignKind, StrideHierarchy, TwoLevelCache, VictimHierarchy,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Brute-force reference: per set, a most-recently-used-last list of line
/// base addresses.
#[derive(Debug, Default)]
struct RefModel {
    sets: HashMap<u32, Vec<u32>>, // set -> MRU-last list of bases
    geom: Option<CacheGeometry>,
}

impl RefModel {
    fn new(geom: CacheGeometry) -> Self {
        RefModel {
            sets: HashMap::new(),
            geom: Some(geom),
        }
    }

    fn geom(&self) -> &CacheGeometry {
        self.geom.as_ref().expect("initialized")
    }

    fn lookup(&self, addr: u32) -> bool {
        let base = self.geom().line_base(addr);
        self.sets
            .get(&self.geom().set_index(addr))
            .is_some_and(|v| v.contains(&base))
    }

    /// Touch + miss-fill with LRU eviction; returns the evicted base.
    fn access(&mut self, addr: u32) -> Option<u32> {
        let g = *self.geom();
        let base = g.line_base(addr);
        let set = self.sets.entry(g.set_index(addr)).or_default();
        if let Some(pos) = set.iter().position(|&b| b == base) {
            let b = set.remove(pos);
            set.push(b);
            return None;
        }
        let mut evicted = None;
        if set.len() == g.assoc() as usize {
            evicted = Some(set.remove(0));
        }
        set.push(base);
        evicted
    }
}

/// Every conventional design in its paper configuration.
fn conventional_designs() -> Vec<Box<dyn CacheSim>> {
    vec![
        Box::new(TwoLevelCache::paper(DesignKind::Bc)),
        Box::new(TwoLevelCache::paper(DesignKind::Bcc)),
        Box::new(TwoLevelCache::paper(DesignKind::Hac)),
        Box::new(BcpHierarchy::paper()),
        Box::new(StrideHierarchy::paper()),
        Box::new(VictimHierarchy::paper()),
    ]
}

fn geom_strategy() -> impl Strategy<Value = CacheGeometry> {
    (0u32..3, 0u32..3, 0u32..3).prop_map(|(s, a, l)| CacheGeometry::new(1024 << s, 1 << a, 16 << l))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tag array agrees with the brute-force LRU model on every access
    /// of an arbitrary address sequence.
    #[test]
    fn set_assoc_matches_reference_lru(
        geom in geom_strategy(),
        addrs in prop::collection::vec(0u32..0x8000, 1..300),
    ) {
        let mut arr: SetAssocCache<()> = SetAssocCache::new(geom);
        let mut model = RefModel::new(geom);
        for a in addrs {
            let a = a & !3;
            let hw = arr.lookup(a);
            prop_assert_eq!(hw.is_some(), model.lookup(a), "hit/miss diverged at {:#x}", a);
            match hw {
                Some(idx) => {
                    arr.touch(idx);
                    model.access(a);
                }
                None => {
                    let (ev, _) = arr.insert(a, false, ());
                    let ev_model = model.access(a);
                    prop_assert_eq!(ev.map(|e| e.base), ev_model, "eviction diverged at {:#x}", a);
                }
            }
        }
    }

    /// Every design (including the stride and victim extensions) reads
    /// back the last written value under arbitrary word traffic.
    #[test]
    fn hierarchies_behave_as_memory(
        ops in prop::collection::vec((0u32..0x4000, any::<u32>(), any::<bool>()), 1..250),
    ) {
        for d in &mut conventional_designs() {
            let mut golden: HashMap<u32, u32> = HashMap::new();
            for (i, &(a, v, is_write)) in ops.iter().enumerate() {
                let addr = 0x40_0000 + (a & !3);
                if is_write {
                    d.write_pc(addr, v, 0x1000 + (i as u32 % 64) * 4);
                    golden.insert(addr, v);
                } else {
                    let expect = golden.get(&addr).copied().unwrap_or(0);
                    let got = d.read_pc(addr, 0x2000 + (i as u32 % 64) * 4).value;
                    prop_assert_eq!(got, expect, "{} diverged at op {}", d.name(), i);
                }
            }
        }
    }

    /// probe_l1 is consistent: immediately after a read, the probe hits;
    /// and a probe never mutates state (two probes agree).
    #[test]
    fn probe_consistency(addrs in prop::collection::vec(0u32..0x4000, 1..100)) {
        for d in &mut conventional_designs() {
            for &a in &addrs {
                let addr = 0x50_0000 + (a & !3);
                d.read(addr);
                prop_assert!(d.probe_l1(addr), "{}: just-read word must probe hit", d.name());
                prop_assert!(d.probe_l1(addr), "probe must be non-destructive");
            }
        }
    }

    /// Miss counters are bounded by accesses and L2 counts only demand
    /// traffic, for every design and any pattern.
    #[test]
    fn stats_are_sane(ops in prop::collection::vec((0u32..0x8000, any::<bool>()), 1..300)) {
        for c in &mut conventional_designs() {
            for (i, &(a, w)) in ops.iter().enumerate() {
                let addr = 0x60_0000 + (a & !3);
                let pc = 0x3000 + (i as u32 % 16) * 4;
                if w {
                    c.write_pc(addr, 1, pc);
                } else {
                    c.read_pc(addr, pc);
                }
            }
            let name = c.name();
            let s = c.stats();
            prop_assert!(s.l1.misses() <= s.l1.accesses(), "{}", name);
            prop_assert!(s.l2.misses() <= s.l2.accesses(), "{}", name);
            prop_assert_eq!(s.l1.accesses(), ops.len() as u64, "{}", name);
            // Every L2 access is an L1 miss: side-buffer hits and
            // prefetches never count as L2 demand accesses.
            prop_assert_eq!(s.l2.accesses(), s.l1.misses(), "{}", name);
            prop_assert!(s.prefetches_discarded <= s.prefetches_issued, "{}", name);
            prop_assert!(s.l1.prefetch_buffer_hits <= s.prefetches_issued, "{}", name);
            if name == "BC" {
                // Memory fetch transactions = L2 misses (no prefetching).
                prop_assert_eq!(s.mem_bus.in_transactions, s.l2.misses());
            }
        }
    }
}
