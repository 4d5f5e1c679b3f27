#![warn(missing_docs)]
// No panic outside tests in any crate the served binaries link (DESIGN.md §9).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![cfg_attr(
    not(test),
    deny(clippy::unreachable, clippy::todo, clippy::unimplemented)
)]

//! Two-level cache-hierarchy substrate.
//!
//! This crate provides everything the paper's evaluation needs *except* the
//! proposed design itself (which lives in `ccp-cpp`):
//!
//! * [`geometry::CacheGeometry`] — size/associativity/line-size math,
//! * [`set_assoc::SetAssocCache`] — a generic LRU set-associative tag array,
//! * [`stats`] — per-level and hierarchy-wide counters,
//! * [`config`] — latency and design configuration (paper Figure 9),
//! * [`CacheSim`] — the trait every hierarchy design implements,
//! * [`baseline::TwoLevel`] — the one conventional hierarchy: it owns the
//!   L1/L2 walk, the fills, the write-backs and the bus accounting, and
//!   each design is a small [`baseline::Side`] structure plugged in beside
//!   L1 and L2:
//!   * [`TwoLevelCache`] — **BC**, **BCC** (compressed bus) and **HAC**
//!     (doubled associativity), with nothing beside the caches;
//!   * [`BcpHierarchy`] — **BCP**, prefetch-on-miss with 8-entry L1 and
//!     32-entry L2 prefetch buffers;
//!   * [`StrideHierarchy`] — **SPT**, a load-PC stride predictor feeding an
//!     L1 prefetch buffer (the paper's ref \[2\]);
//!   * [`VictimHierarchy`] — **VC**, a victim buffer beside L1 (ref \[3\]).
//!
//! [`baseline::LineBuffer`] is the one fully-associative line buffer all
//! three side structures use.
//!
//! All designs share the SimpleScalar-style split between *timing metadata*
//! (kept in the cache models) and *architectural data* (kept in
//! [`ccp_mem::MainMemory`], updated functionally on every store), so the
//! compressed-bus and CPP designs can evaluate compressibility against real
//! values.

pub mod baseline;
pub mod config;
pub mod geometry;
pub mod prefetch;
pub mod set_assoc;
pub mod stats;
pub mod stride;
pub mod victim;

pub use baseline::TwoLevelCache;
pub use config::{DesignKind, HierarchyConfig, LatencyConfig};
pub use geometry::CacheGeometry;
pub use prefetch::BcpHierarchy;
pub use set_assoc::SetAssocCache;
pub use stats::{HierarchyStats, LevelStats};
pub use stride::StrideHierarchy;
pub use victim::VictimHierarchy;

use ccp_mem::MainMemory;

/// A 32-bit machine word.
pub type Word = u32;

/// A 32-bit byte address.
pub type Addr = u32;

/// Where a memory access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitSource {
    /// L1 primary location.
    L1,
    /// L1 affiliated location (CPP only, +1 cycle).
    L1Affiliated,
    /// L1 prefetch buffer (BCP and SPT; not counted as a miss).
    L1PrefetchBuffer,
    /// L2 (any location, including CPP affiliated and BCP prefetch buffer).
    L2,
    /// Off-chip memory.
    Memory,
}

/// Timing outcome of a single word access through a hierarchy. It carries
/// no data: values are read from [`CacheSim::mem`] after the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total access latency in cycles, as seen by the pipeline.
    pub latency: u32,
    /// Where the word was found.
    pub source: HitSource,
}

impl AccessResult {
    /// `true` when the access missed in L1 (i.e. had to leave the L1
    /// primary/affiliated arrays; BCP prefetch-buffer hits are *not* misses,
    /// matching the paper's accounting).
    pub fn l1_miss(&self) -> bool {
        !matches!(
            self.source,
            HitSource::L1 | HitSource::L1Affiliated | HitSource::L1PrefetchBuffer
        )
    }

    /// `true` when the access went all the way to memory.
    pub fn l2_miss(&self) -> bool {
        matches!(self.source, HitSource::Memory)
    }
}

/// A complete data-memory hierarchy (L1 + L2 + memory) under simulation.
///
/// The pipeline drives this trait with word-granularity reads and writes;
/// implementations update their timing metadata, charge a latency, account
/// bus traffic, and keep the architectural image in [`MainMemory`] current.
/// An access returns timing only ([`AccessResult`]); values are read
/// through [`CacheSim::mem`].
pub trait CacheSim {
    /// Performs a word-aligned read of `addr`.
    fn read(&mut self, addr: Addr) -> AccessResult;

    /// Performs a word-aligned write of `value` to `addr`.
    fn write(&mut self, addr: Addr, value: Word) -> AccessResult;

    /// Like [`CacheSim::read`], with the PC of the load instruction.
    /// PC-indexed designs (the stride prefetcher) use it; the default
    /// ignores the PC.
    fn read_pc(&mut self, addr: Addr, _pc: u32) -> AccessResult {
        self.read(addr)
    }

    /// Like [`CacheSim::write`], with the PC of the store instruction.
    fn write_pc(&mut self, addr: Addr, value: Word, _pc: u32) -> AccessResult {
        self.write(addr, value)
    }

    /// Non-destructive probe: would a read of `addr` hit at L1 (including
    /// an L1 prefetch buffer, victim buffer or affiliated location)? Used by the pipeline
    /// to model a bounded number of outstanding misses (MSHRs): a load
    /// predicted to miss cannot issue while every MSHR is busy.
    fn probe_l1(&self, addr: Addr) -> bool;

    /// Accumulated statistics.
    fn stats(&self) -> &HierarchyStats;

    /// Clears statistics (e.g. after cache warm-up) without touching cache
    /// contents.
    fn reset_stats(&mut self);

    /// Current latency configuration.
    fn latencies(&self) -> LatencyConfig;

    /// Replaces the latency configuration (used by the Figure 14
    /// halved-miss-penalty experiment).
    fn set_latencies(&mut self, lat: LatencyConfig);

    /// The architectural memory image.
    fn mem(&self) -> &MainMemory;

    /// Mutable access to the architectural memory image (workload setup).
    fn mem_mut(&mut self) -> &mut MainMemory;

    /// Short design name, e.g. `"BC"` or `"CPP"`.
    fn name(&self) -> &'static str;

    /// Unused by the simulator; kept only because `perfbench/src/spans.rs` forwards it.
    fn shard_region_bits(&self) -> Option<(u32, u32)> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_miss_classification() {
        let mk = |source| AccessResult { latency: 1, source };
        assert!(!mk(HitSource::L1).l1_miss());
        assert!(!mk(HitSource::L1Affiliated).l1_miss());
        assert!(!mk(HitSource::L1PrefetchBuffer).l1_miss());
        assert!(mk(HitSource::L2).l1_miss());
        assert!(mk(HitSource::Memory).l1_miss());
    }

    #[test]
    fn l2_miss_classification() {
        let mk = |source| AccessResult { latency: 1, source };
        assert!(!mk(HitSource::L2).l2_miss());
        assert!(mk(HitSource::Memory).l2_miss());
        assert!(!mk(HitSource::L1).l2_miss());
    }
}
