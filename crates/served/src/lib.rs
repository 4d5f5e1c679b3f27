#![warn(missing_docs)]

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
//! The three modules mirror the moving parts:
//!
//! * [`protocol`] — the wire format (requests, responses, counters);
//! * [`cache`] — the content-addressed single-flight result cache;
//! * [`server`] — listener, connection handling, worker pool, drain;
//! * [`client`] — blocking client and the `bench` load generator;
//! * [`sync`] — poison-transparent locking shared by the above.
//!
//! Everything rides on [`ccp_sim::JobSpec`]: its canonical form is the
//! cache key, its resolution produces the typed errors the wire carries,
//! and [`ccp_sim::run_job_ctl`] supplies crash isolation (a panicking
//! job is a `job_error`, never a dead worker), the runaway-stream
//! watchdog, cooperative cancellation, and progress callbacks.

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;
pub mod sync;

pub use cache::{CacheCounters, Lookup, ResultCache};
pub use client::{
    jittered_backoff_ms, run_bench, BenchConfig, BenchReport, Client, JobOutcome, SubmitCtl,
};
pub use protocol::{Request, Response, StatsSnapshot};
pub use server::{start, ServerConfig, ServerHandle};
