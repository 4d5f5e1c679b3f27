//! Property tests for the cache substrate: the set-associative array must
//! agree with a naive map model, and every conventional
//! hierarchy (BC, BCC, HAC, BCP, SPT, VC) must behave as a memory and keep
//! its demand accounting consistent under arbitrary access patterns.

use ccp_cache::geometry::CacheGeometry;
use ccp_cache::set_assoc::SetAssocCache;
use ccp_cache::{
    BcpHierarchy, CacheSim, DesignKind, StrideHierarchy, TwoLevelCache, VictimHierarchy,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Word addresses, a third of them in the top 4 KB of the address space
/// and a third in its top 64 bytes, where each geometry's largest tags are.
fn array_addr() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..0x2_0000,
        0xFFFF_F000u32..=0xFFFF_FFFF,
        0xFFFF_FFC0u32..=0xFFFF_FFFF
    ]
    .prop_map(|a| a & !3)
}

/// 1, 2 or 4 ways of 4-byte, 64-byte or 4 KB lines, 1 to 8 sets.
fn array_geom() -> impl Strategy<Value = CacheGeometry> {
    (0u32..3, 0u32..3, 0u32..4).prop_map(|(a, l, s)| {
        let line = [4, 64, 4096][l as usize];
        CacheGeometry::new(line << (a + s), 1 << a, line)
    })
}

/// Naive model of a tag array: global way index → `(line base, dirty,
/// last use)`; an absent key is an empty way.
struct MapModel {
    geom: CacheGeometry,
    ways: BTreeMap<usize, (u32, bool, u64)>,
    clock: u64,
}

impl MapModel {
    fn set_ways(&self, addr: u32) -> std::ops::Range<usize> {
        let first = (self.geom.set_index(addr) * self.geom.assoc()) as usize;
        first..first + self.geom.assoc() as usize
    }

    fn lookup(&self, addr: u32) -> Option<usize> {
        let base = self.geom.line_base(addr);
        self.set_ways(addr)
            .find(|i| self.ways.get(i).is_some_and(|w| w.0 == base))
    }

    /// The first empty way of the set, else its least recently used way.
    fn victim_index(&self, addr: u32) -> Option<usize> {
        let ways = self.set_ways(addr);
        ways.clone()
            .find(|i| !self.ways.contains_key(i))
            .or_else(|| ways.min_by_key(|i| self.ways[i].2))
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The array agrees with a naive map model on every lookup and victim
    /// choice of a run of inserts, touches and invalidations, also for
    /// lines whose tags are the largest an address can have: an empty way's
    /// tag never matches one.
    #[test]
    fn set_assoc_matches_reference_lru(
        geom in array_geom(),
        ops in prop::collection::vec((0u8..3, array_addr(), 0u32..4), 1..200),
    ) {
        let mut arr: SetAssocCache<()> = SetAssocCache::new(geom);
        let mut model = MapModel { geom, ways: BTreeMap::new(), clock: 0 };
        for (i, &(kind, a, w)) in ops.iter().enumerate() {
            let hit = model.lookup(a);
            prop_assert_eq!(arr.lookup(a), hit, "op {} at {:#x}", i, a);
            prop_assert_eq!(Some(arr.victim_index(a)), model.victim_index(a), "op {}", i);
            model.clock += 1;
            match (kind, hit) {
                // Insert a missing line, or touch a resident one.
                (0 | 1, Some(idx)) => {
                    arr.touch(idx);
                    model.ways.entry(idx).and_modify(|e| e.2 = model.clock);
                }
                (0, None) => {
                    let want = model.victim_index(a).expect("a set has ways");
                    let gone = model.ways.insert(want, (geom.line_base(a), w & 1 != 0, model.clock));
                    let (ev, idx) = arr.insert(a, w & 1 != 0, ());
                    prop_assert_eq!(idx, want, "op {}", i);
                    prop_assert_eq!(ev.map(|e| (e.base, e.dirty)), gone.map(|g| (g.0, g.1)));
                }
                (1, None) => {}
                _ => {
                    let idx = model.set_ways(a).start + (w % geom.assoc()) as usize;
                    let gone = model.ways.remove(&idx).map(|g| (g.0, g.1));
                    prop_assert_eq!(arr.invalidate(idx).map(|e| (e.base, e.dirty)), gone);
                }
            }
            prop_assert_eq!(arr.valid_count(), model.ways.len(), "op {}", i);
        }
        prop_assert!(arr.iter_valid().eq(model.ways.keys().copied()));
        for (&idx, &(base, dirty, _)) in &model.ways {
            prop_assert!(arr.is_valid(idx) && arr.is_dirty(idx) == dirty);
            prop_assert_eq!(arr.base_of(idx), base);
        }
    }

    /// Every design (including the stride and victim extensions) holds the
    /// last written value in `mem()` at each load under arbitrary word traffic.
    #[test]
    fn hierarchies_behave_as_memory(
        ops in prop::collection::vec((0u32..0x4000, any::<u32>(), any::<bool>()), 1..250),
    ) {
        for d in &mut conventional_designs() {
            let mut golden: BTreeMap<u32, u32> = BTreeMap::new();
            for (i, &(a, v, is_write)) in ops.iter().enumerate() {
                let addr = 0x40_0000 + (a & !3);
                if is_write {
                    d.write_pc(addr, v, 0x1000 + (i as u32 % 64) * 4);
                    golden.insert(addr, v);
                } else {
                    d.read_pc(addr, 0x2000 + (i as u32 % 64) * 4);
                    let expect = golden.get(&addr).copied().unwrap_or(0);
                    prop_assert_eq!(d.mem().read(addr), expect, "{} diverged at op {}", d.name(), i);
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
