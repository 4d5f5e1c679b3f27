//! The two-tier store: a byte-bounded hot RAM tier over the cold
//! [`DiskTier`].
//!
//! Reads check RAM first, then disk (promoting a disk hit back into RAM);
//! writes land in both tiers, so any entry that was ever completed can be
//! served from disk even after RAM eviction or a process restart. The RAM
//! tier is a deterministic LRU bounded by an *estimated byte* budget, not
//! an entry count — entries carry their canonical text, whose length
//! varies widely between benchmark names and long `workgen:` specs.

use crate::{DiskCounters, DiskTier};
use ccp_pipeline::RunStats;
use std::collections::HashMap;
use std::sync::Arc;

/// Fixed per-entry bookkeeping charge added to each entry's variable
/// cost (map slot, key, Arc control block).
const ENTRY_OVERHEAD: usize = 64;

/// Estimated resident cost of one hot entry.
pub fn entry_cost(canonical: &str) -> usize {
    canonical.len() + std::mem::size_of::<RunStats>() + ENTRY_OVERHEAD
}

/// Monotonic counters describing store traffic across both tiers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Lookups served from the RAM tier.
    pub ram_hits: u64,
    /// Lookups that missed RAM but were served (verified) from disk.
    pub disk_hits: u64,
    /// Lookups neither tier could serve.
    pub misses: u64,
    /// Entries evicted from the RAM tier (still on disk).
    pub evictions: u64,
    /// Lookups whose key matched but whose canonical text did not.
    pub collisions: u64,
}

struct HotEntry {
    canonical: String,
    stats: Arc<RunStats>,
    cost: usize,
    last_used: u64,
}

/// A byte-bounded RAM cache over an optional disk tier.
///
/// Methods take `&mut self`; concurrent users wrap the store in a mutex.
pub struct TieredStore {
    ram_budget: usize,
    bytes: usize,
    tick: u64,
    map: HashMap<u64, HotEntry>,
    disk: Option<DiskTier>,
    counters: StoreCounters,
}

impl TieredStore {
    /// A store with `ram_budget` estimated bytes of hot capacity over an
    /// optional disk tier. A zero budget disables RAM retention (every
    /// read goes to disk); no disk tier makes this a plain RAM cache.
    pub fn new(ram_budget: usize, disk: Option<DiskTier>) -> TieredStore {
        TieredStore {
            ram_budget,
            bytes: 0,
            tick: 0,
            map: HashMap::new(),
            disk,
            counters: StoreCounters::default(),
        }
    }

    /// Looks `key` up in RAM, then disk. A disk hit is promoted into RAM.
    /// A key whose stored canonical text differs from `canonical` is a
    /// detected collision and reported as a miss.
    pub fn get(&mut self, key: u64, canonical: &str) -> Option<Arc<RunStats>> {
        self.tick += 1;
        if let Some(e) = self.map.get_mut(&key) {
            if e.canonical == canonical {
                e.last_used = self.tick;
                self.counters.ram_hits += 1;
                return Some(Arc::clone(&e.stats));
            }
            self.counters.collisions += 1;
            self.counters.misses += 1;
            return None;
        }
        if let Some(disk) = &self.disk {
            if let Some(stats) = disk.get_stats(key, canonical) {
                let stats = Arc::new(stats);
                self.counters.disk_hits += 1;
                self.insert_hot(key, canonical, Arc::clone(&stats));
                return Some(stats);
            }
        }
        self.counters.misses += 1;
        None
    }

    /// Stores a completed result in both tiers. Disk write failures are
    /// swallowed: the disk tier is an optimization, and a result that
    /// only lives in RAM is still a correct result.
    pub fn put(&mut self, key: u64, canonical: &str, stats: Arc<RunStats>) {
        if let Some(disk) = &self.disk {
            let _ = disk.put_stats(key, canonical, &stats);
        }
        self.tick += 1;
        self.insert_hot(key, canonical, stats);
    }

    fn insert_hot(&mut self, key: u64, canonical: &str, stats: Arc<RunStats>) {
        let cost = entry_cost(canonical);
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= old.cost;
        }
        if cost <= self.ram_budget {
            self.bytes += cost;
            self.map.insert(
                key,
                HotEntry {
                    canonical: canonical.to_string(),
                    stats,
                    cost,
                    last_used: self.tick,
                },
            );
        }
        self.evict_over_budget();
    }

    fn evict_over_budget(&mut self) {
        while self.bytes > self.ram_budget {
            // Deterministic LRU: oldest tick, key as tiebreak.
            let Some((&victim, _)) = self.map.iter().min_by_key(|(k, e)| (e.last_used, **k)) else {
                break;
            };
            if let Some(e) = self.map.remove(&victim) {
                self.bytes -= e.cost;
                self.counters.evictions += 1;
            }
        }
    }

    /// Estimated bytes resident in the RAM tier.
    pub fn ram_bytes(&self) -> usize {
        self.bytes
    }

    /// Entries resident in the RAM tier.
    pub fn ram_entries(&self) -> usize {
        self.map.len()
    }

    /// Store traffic counters.
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// Disk-tier counters, if a disk tier is attached.
    pub fn disk_counters(&self) -> Option<DiskCounters> {
        self.disk.as_ref().map(|d| d.counters())
    }

    /// The disk tier, if attached.
    pub fn disk(&self) -> Option<&DiskTier> {
        self.disk.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv1a;
    use std::path::PathBuf;

    fn stats(cycles: u64) -> Arc<RunStats> {
        Arc::new(RunStats {
            cycles,
            instructions: 100,
            ..Default::default()
        })
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ccp-tiered-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn ram_only_store_hits_and_misses() {
        let mut s = TieredStore::new(1 << 20, None);
        let canonical = "workload=mst|design=BC";
        let key = fnv1a(canonical.as_bytes());
        assert!(s.get(key, canonical).is_none());
        s.put(key, canonical, stats(5));
        assert_eq!(s.get(key, canonical).unwrap().cycles, 5);
        let c = s.counters();
        assert_eq!((c.ram_hits, c.misses), (1, 1));
    }

    #[test]
    fn eviction_is_byte_bounded_not_entry_bounded() {
        // Budget fits exactly two short-canonical entries.
        let short_cost = entry_cost("ab");
        let mut s = TieredStore::new(2 * short_cost, None);
        s.put(1, "ab", stats(1));
        s.put(2, "cd", stats(2));
        assert_eq!(s.ram_entries(), 2);
        assert!(s.ram_bytes() <= 2 * short_cost);
        // A long-canonical entry costs more, so inserting it evicts BOTH
        // residents even though the entry count stays below two.
        let long = "workload=workgen:addr=zipf,small=0.6,footprint=1048576|design=CPP";
        assert!(entry_cost(long) > short_cost);
        s.put(3, long, stats(3));
        assert!(s.ram_bytes() <= 2 * short_cost, "budget respected");
        assert!(s.counters().evictions >= 1);
        assert!(s.get(3, long).is_some(), "newest entry resident");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cost = entry_cost("aa");
        let mut s = TieredStore::new(2 * cost, None);
        s.put(1, "aa", stats(1));
        s.put(2, "bb", stats(2));
        assert!(s.get(1, "aa").is_some(), "touch 1");
        s.put(3, "cc", stats(3));
        assert!(s.get(1, "aa").is_some(), "recently touched survives");
        assert!(s.get(2, "bb").is_none(), "LRU victim evicted");
        assert!(s.get(3, "cc").is_some());
    }

    #[test]
    fn zero_budget_disables_ram_retention() {
        let mut s = TieredStore::new(0, None);
        s.put(1, "aa", stats(1));
        assert_eq!(s.ram_entries(), 0);
        assert!(s.get(1, "aa").is_none());
    }

    #[test]
    fn disk_tier_survives_ram_eviction_and_restart() {
        let dir = tmp_dir("restart");
        let canonical = "workload=olden.health|design=CPP|budget=2000|seed=7";
        let key = fnv1a(canonical.as_bytes());
        {
            let disk = DiskTier::open(&dir).unwrap();
            let mut s = TieredStore::new(0, Some(disk));
            s.put(key, canonical, stats(777));
        }
        // A brand-new store over the same directory serves the entry from
        // the disk tier and promotes it.
        let disk = DiskTier::open(&dir).unwrap();
        let mut s = TieredStore::new(1 << 20, Some(disk));
        assert_eq!(s.get(key, canonical).unwrap().cycles, 777);
        assert_eq!(s.counters().disk_hits, 1);
        assert_eq!(s.counters().ram_hits, 0);
        // Promoted: the second read is a RAM hit.
        assert_eq!(s.get(key, canonical).unwrap().cycles, 777);
        assert_eq!(s.counters().ram_hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn collisions_are_detected_not_served() {
        let mut s = TieredStore::new(1 << 20, None);
        s.put(42, "canonical-a", stats(1));
        assert!(s.get(42, "canonical-b").is_none());
        assert_eq!(s.counters().collisions, 1);
    }

    #[test]
    fn schemes_get_distinct_content_addresses_in_both_tiers() {
        // The same workload run under two compression schemes must land in
        // two different `.ccpz` objects and two different RAM entries — a
        // BDI result can never answer a CPP lookup.
        use ccp_sim::JobSpec;
        let dir = tmp_dir("schemes");
        let mut cpp = JobSpec::new("health", "CPP");
        let mut bdi = cpp.clone();
        cpp.scheme = "CPP".into();
        bdi.scheme = "BDI".into();
        assert_ne!(cpp.cache_key(), bdi.cache_key());

        let disk = DiskTier::open(&dir).unwrap();
        assert_ne!(
            disk.path_for(cpp.cache_key()),
            disk.path_for(bdi.cache_key()),
            "schemes must not share a .ccpz object"
        );
        let mut s = TieredStore::new(1 << 20, Some(disk));
        s.put(cpp.cache_key(), &cpp.canonical(), stats(100));
        s.put(bdi.cache_key(), &bdi.canonical(), stats(200));
        assert_eq!(
            s.get(cpp.cache_key(), &cpp.canonical()).unwrap().cycles,
            100
        );
        assert_eq!(
            s.get(bdi.cache_key(), &bdi.canonical()).unwrap().cycles,
            200
        );
        // Cross-scheme lookup misses outright: different key, and even a
        // forged key would trip the canonical-text collision check.
        assert!(s.get(cpp.cache_key(), &bdi.canonical()).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
