#![warn(missing_docs)]

//! Two-tier content-addressed result store for simulation results.
//!
//! Results are addressed by the FNV-1a key of a job's canonical text
//! (the same key [`ccp_sim::JobSpec::cache_key`] computes). The hot tier
//! is a byte-bounded in-RAM LRU; the cold tier is an on-disk directory of
//! one file per key, written atomically and transparently LZ-compressed
//! (the ZipCache shape: compress what you keep, verify what you load).
//! `ccp-served` spills its result cache to the [`disk`] tier, so a
//! result outlives the server process that computed it.
//!
//! * [`lz`] — the dependency-free LZSS byte compressor,
//! * [`disk`] — the cold tier and the `CCPZ` entry format,
//! * [`tiered`] — the combined RAM-over-disk store.

pub mod disk;
pub mod lz;
pub mod tiered;

pub use disk::{decode_entry, encode_entry, fnv1a, DiskCounters, DiskTier};
pub use tiered::{entry_cost, StoreCounters, TieredStore};
