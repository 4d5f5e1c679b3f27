#![warn(missing_docs)]

//! Two-tier content-addressed result store for simulation results.
//!
//! Results are addressed by the FNV-1a key of a job's canonical text
//! ([`ccp_sim::JobSpec::cache_key`]). The hot tier is a byte-bounded
//! in-RAM LRU ([`tiered`]); the cold tier is [`DiskTier`], an on-disk
//! directory of one raw, checksummed `.ccpz` file per key, written
//! atomically and verified on every load. The disk tier lives in
//! [`ccp_sim::checkpoint`], because `repro sweep --store` persists its
//! cells through it too, and is re-exported here: a sweep's store
//! answers `ccp-served` submits and the reverse.

pub mod tiered;

pub use ccp_sim::checkpoint::{decode_entry, encode_entry, fnv1a, DiskCounters, DiskTier};
pub use tiered::{entry_cost, StoreCounters, TieredStore};
