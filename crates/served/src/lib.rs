#![warn(missing_docs)]
#![allow(clippy::disallowed_types)]
// No panic outside tests in any crate the served binaries link (DESIGN.md §9).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![cfg_attr(
    not(test),
    deny(clippy::unreachable, clippy::todo, clippy::unimplemented)
)]

//! Simulation-as-a-service for the CCP workspace.
//!
//! `ccp-served` turns the single-shot simulator into a long-lived
//! service: clients submit jobs (benchmark names or `workgen:` specs ×
//! design × configuration) over a newline-delimited JSON TCP protocol, a
//! bounded worker pool runs them through the same guarded core as
//! `repro sweep` cells, and a content-addressed result cache with
//! single-flight deduplication makes repeated and concurrent-identical
//! submissions nearly free. `ccp-client` is the matching CLI: one-shot
//! submissions, server control, and a zipf load generator.
//!
//! The modules mirror the moving parts:
//!
//! * [`protocol`] — the wire format (requests, responses, counters),
//!   specified in DESIGN.md §8;
//! * [`cache`] — the content-addressed single-flight result cache;
//! * [`server`] — listener, connection handling, worker pool, drain;
//! * [`client`] — blocking client and the `bench` load generator;
//! * [`sync`] — poison-transparent locking shared by the above.
//!
//! Everything rides on [`ccp_sim::JobSpec`]: its canonical form is the
//! cache key, its resolution produces the typed errors the wire carries,
//! and [`ccp_sim::run_job_ctl`] supplies crash isolation (a panicking
//! job is a `job_error`, never a dead worker), the runaway-stream
//! watchdog, progress callbacks, and the cooperative cancellation that
//! stops a running job once its submit deadline passes.

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;
pub mod sync;

pub use cache::{CacheCounters, Flight, Lookup, ResultCache};
pub use client::{jittered_backoff_ms, run_bench, BenchConfig, BenchReport, Client, JobOutcome};
pub use protocol::{Request, Response, StatsSnapshot};
pub use server::{start, ServerConfig, ServerHandle};
