//! End-to-end tests against an in-process `ccp-served` instance: protocol
//! round-trips over real TCP, result-cache semantics (including the
//! single-flight dedup property), crash isolation, graceful drain,
//! deadlines (shared by joined waiters), typed overload sheds, and the
//! disk tier outliving a server restart.

use ccp_served::{run_bench, start, BenchConfig, Client, Request, Response, ServerConfig};
use ccp_sim::{run_job, JobSpec};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

fn serve(workers: usize) -> ccp_served::ServerHandle {
    start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        ..ServerConfig::default()
    })
    .expect("start server")
}

/// A unique scratch path under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ccp-serve-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// `.ccpz` entries in a store directory (0 when it does not exist).
fn ccpz_count(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .map(|d| {
            d.filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "ccpz"))
                .count()
        })
        .unwrap_or(0)
}

fn quick(workload: &str, design: &str, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(workload, design);
    spec.budget = 2_000;
    spec.seed = seed;
    spec
}

#[test]
fn served_results_match_direct_runs() {
    let server = serve(2);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    for workload in ["health", "workgen:addr=uniform,small=0.5,footprint=4096"] {
        let spec = quick(workload, "CPP", 7);
        let outcome = client.submit_wait(&spec).expect("submit");
        let direct = run_job(&spec).expect("direct run");
        assert_eq!(
            outcome.stats.get("cycles").and_then(|v| v.as_u64()),
            Some(direct.cycles),
            "{workload}: served cycles must equal a direct ccp-sim run"
        );
        assert_eq!(
            outcome.stats.get("instructions").and_then(|v| v.as_u64()),
            Some(direct.instructions),
            "{workload}"
        );
        assert!(!outcome.cached, "first submission computes");

        let again = client.submit_wait(&spec).expect("resubmit");
        assert!(again.cached, "identical resubmission is a cache hit");
        assert_eq!(again.stats, outcome.stats, "hit returns identical stats");
    }

    server.shutdown();
    server.wait();
}

#[test]
fn progress_events_stream_before_the_result() {
    let server = serve(1);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let mut spec = quick("health", "BC", 3);
    spec.budget = 20_000;
    let outcome = client.submit_wait(&spec).expect("submit");
    assert!(
        outcome.progress_events >= 2,
        "a 20k-instruction job reports progress (saw {})",
        outcome.progress_events
    );
    server.shutdown();
    server.wait();
}

#[test]
fn panicking_job_returns_typed_error_and_server_keeps_serving() {
    let server = serve(2);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    // A PR-2 fault injection poisons the hierarchy and panics the worker.
    let mut poisoned = quick("health", "CPP", 11);
    poisoned.budget = 1_500;
    poisoned.fault = Some("vcp".into());
    let err = client.submit_wait(&poisoned).expect_err("fault job fails");
    assert_eq!(err.class(), "panic", "{err}");
    assert!(err.to_string().contains("poisoned"), "{err}");

    // Same connection, same server: still fully functional.
    let ok = client.submit_wait(&quick("mst", "BCP", 11)).expect("after");
    assert!(ok.stats.get("cycles").is_some());

    let stats = client.stats().expect("stats");
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);

    server.shutdown();
    server.wait();
}

#[test]
fn malformed_lines_get_typed_errors_without_killing_the_connection() {
    let server = serve(1);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    client.send(&Request::Ping).expect("send");
    assert!(matches!(client.recv().expect("recv"), Response::Pong));

    // Raw garbage on the same wire.
    use std::io::Write;
    let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
    raw.write_all(b"this is not json\n{\"type\":\"warp\"}\n")
        .expect("write");
    // The garbled connection answers each bad line with a typed error...
    let mut reader = std::io::BufReader::new(raw.try_clone().expect("clone"));
    for _ in 0..2 {
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).expect("read");
        let resp = Response::parse(line.trim()).expect("parse");
        assert!(matches!(resp, Response::ProtocolError { .. }), "{resp:?}");
    }
    // ...and keeps serving afterwards.
    raw.write_all(b"{\"type\":\"ping\"}\n").expect("write ping");
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).expect("read");
    assert!(matches!(
        Response::parse(line.trim()).expect("parse"),
        Response::Pong
    ));

    server.shutdown();
    server.wait();
}

#[test]
fn unknown_names_come_back_as_typed_job_errors() {
    let server = serve(1);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let err = client
        .submit_wait(&quick("nonesuch", "CPP", 1))
        .expect_err("bad workload");
    assert_eq!(err.class(), "unknown-name");
    let err = client
        .submit_wait(&quick("health", "XYZ", 1))
        .expect_err("bad design");
    assert_eq!(err.class(), "unknown-name");
    server.shutdown();
    server.wait();
}

#[test]
fn shutdown_drains_inflight_jobs_and_refuses_new_ones() {
    let server = serve(1);
    let addr = server.addr().to_string();

    // Occupy the single worker with a longer job, submitted raw so we can
    // interleave other connections while it runs.
    let mut slow = quick("health", "CPP", 21);
    slow.budget = 400_000;
    let mut submitter = Client::connect(&addr).expect("connect");
    submitter
        .send(&Request::Submit {
            spec: slow,
            deadline_ms: 0,
        })
        .expect("send");
    match submitter.recv().expect("accepted") {
        Response::Accepted { .. } => {}
        other => panic!("expected accepted, got {other:?}"),
    }

    // Opened pre-drain: the listener stops accepting once draining, so a
    // refused submission needs an already-established connection.
    let mut late = Client::connect(&addr).expect("connect");

    let mut controller = Client::connect(&addr).expect("connect");
    let detail = controller.shutdown().expect("shutdown ack");
    assert!(detail.contains("drain"), "{detail}");
    assert!(server.is_draining());

    // New submissions are refused with the typed shutdown class.
    let err = late
        .submit_wait(&quick("mst", "BC", 1))
        .expect_err("refused");
    assert_eq!(err.class(), "shutdown", "{err}");

    // The in-flight job still completes and is delivered whole.
    loop {
        match submitter.recv().expect("drain delivers the result") {
            Response::Progress { .. } => continue,
            Response::Result { cached, stats, .. } => {
                assert!(!cached);
                assert!(stats.get("cycles").and_then(|v| v.as_u64()).unwrap() > 0);
                break;
            }
            other => panic!("expected result, got {other:?}"),
        }
    }
    server.wait();
}

#[test]
fn a_peer_stalled_mid_frame_is_closed_by_the_drain() {
    use std::io::{BufRead, BufReader, Read, Write};
    let server = serve(1);
    let mut peer = std::net::TcpStream::connect(server.addr()).expect("connect");
    // A full round trip first, so the connection is accepted before the
    // drain stops the listener.
    peer.write_all(b"{\"type\":\"ping\"}\n").expect("send ping");
    let mut reader = BufReader::new(peer.try_clone().expect("clone"));
    let mut pong = String::new();
    reader.read_line(&mut pong).expect("pong");
    assert!(pong.contains("pong"), "{pong}");
    peer.write_all(b"{\"type\":\"pi").expect("send half a line");

    server.shutdown();
    server.wait();
    // EOF within a few read timeouts; a held connection times out instead.
    peer.set_read_timeout(Some(ccp_served::server::READ_POLL * 10))
        .expect("timeout");
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "no reply to half a line: {rest:?}"),
        Err(e) => panic!("the stalled peer's connection outlived the drain: {e}"),
    }
}

#[test]
fn joined_waiters_share_the_leaders_deadline() {
    let store = scratch("joined-deadline-store");
    let server = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        store_dir: Some(store.clone()),
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = server.addr().to_string();
    let mut spec = JobSpec::new("health", "CPP");
    spec.budget = 2_000_000; // runs for much longer than the deadline

    // The leader carries the deadline...
    let mut leader = Client::connect(&addr).expect("connect");
    leader
        .send(&Request::Submit {
            spec: spec.clone(),
            deadline_ms: 300,
        })
        .expect("send");
    let Response::Accepted { .. } = leader.recv().expect("accepted") else {
        panic!("expected accepted");
    };

    // ...and an identical submit without one joins its flight, so it ends
    // with the leader's timeout rather than running to completion.
    let mut waiter = Client::connect(&addr).expect("connect");
    let err = waiter
        .submit_wait(&spec)
        .expect_err("a joined waiter shares the leader's deadline");
    assert_eq!(err.class(), "timeout", "{err}");
    let class = loop {
        match leader.recv().expect("leader response") {
            Response::Progress { .. } => continue,
            Response::JobError { class, .. } => break class,
            other => panic!("expected job_error, got {other:?}"),
        }
    };
    assert_eq!(class, "timeout");

    let stats = waiter.stats().expect("stats");
    assert!(stats.joined >= 1, "the waiter joined: {stats:?}");
    assert_eq!(stats.deadline_expired, 1, "one flight expired: {stats:?}");
    assert_eq!(
        ccpz_count(&store),
        0,
        "an expired flight must never spill to the store"
    );

    server.shutdown();
    server.wait();
    let _ = std::fs::remove_dir_all(&store);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Two identical concurrent submissions cost exactly one simulation
    /// and both receive the same stats — the single-flight property,
    /// exercised over fresh cache keys (per-case seeds) and both
    /// workload families.
    #[test]
    fn concurrent_identical_jobs_run_once(case_seed in 0u64..10_000, synthetic in any::<bool>()) {
        use std::sync::OnceLock;
        static SERVER: OnceLock<(ccp_served::ServerHandle, String)> = OnceLock::new();
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let (_, addr) = SERVER.get_or_init(|| {
            let s = serve(4);
            let addr = s.addr().to_string();
            (s, addr)
        });

        // A seed never used before on this server: every case starts as a
        // cache miss.
        let seed = 100_000 + case_seed * 10_000 + UNIQUE.fetch_add(1, Ordering::Relaxed);
        let workload = if synthetic {
            "workgen:addr=zipf,small=0.3,footprint=8192"
        } else {
            "perimeter"
        };
        let spec = quick(workload, "CPP", seed);

        let mut control = Client::connect(addr).expect("control");
        let before = control.stats().expect("stats");

        let barrier = Arc::new(Barrier::new(2));
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let spec = spec.clone();
                let addr = addr.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    barrier.wait();
                    client.submit_wait(&spec).expect("submit")
                })
            })
            .collect();
        let outcomes: Vec<_> = threads
            .into_iter()
            .map(|t| t.join().expect("no panics"))
            .collect();

        let after = control.stats().expect("stats");
        prop_assert_eq!(
            after.sims_run - before.sims_run,
            1,
            "two identical concurrent jobs must run one simulation"
        );
        prop_assert_eq!(&outcomes[0].stats, &outcomes[1].stats);
        prop_assert_eq!(
            outcomes.iter().filter(|o| o.cached).count(),
            1,
            "exactly one leader computes; the other joins or hits"
        );
    }
}

#[test]
fn bench_mode_reports_high_hit_rate_on_zipf_mix() {
    let server = serve(4);
    let addr = server.addr().to_string();
    let report = run_bench(&BenchConfig {
        addr: addr.clone(),
        conns: 4,
        requests: 200,
        distinct: 16,
        skew: 1.0,
        budget: 1_000,
        ..Default::default()
    })
    .expect("bench");
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.completed, 200);
    assert!(
        report.hit_rate > 0.80,
        "zipf mix over 16 jobs must mostly hit: {report:?}"
    );
    assert!(
        report.sims_run <= 16,
        "at most one simulation per distinct spec: {report:?}"
    );
    server.shutdown();
    server.wait();
}

#[test]
fn deadline_expired_jobs_are_cancelled_and_never_cached() {
    let store = scratch("deadline-store");
    let server = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        store_dir: Some(store.clone()),
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = server.addr().to_string();
    let mut spec = JobSpec::new("health", "CPP");
    spec.budget = 2_000_000; // runs for much longer than the deadline

    let mut client = Client::connect(&addr).expect("connect");
    let err = client
        .submit_wait_deadline(&spec, 5)
        .expect_err("a 5 ms deadline must expire before a 2M-instruction job finishes");
    assert_eq!(
        err.class(),
        "timeout",
        "expired deadline reports as timeout: {err}"
    );

    let stats = client.stats().expect("stats");
    assert!(
        stats.deadline_expired >= 1,
        "server must count the expiry: {stats:?}"
    );

    // The contract: "cancelled, never completed". Nothing may have
    // reached the RAM cache or the disk tier.
    assert_eq!(
        ccpz_count(&store),
        0,
        "an expired job must never spill to the store"
    );

    let again = client
        .submit_wait(&spec)
        .expect("the same spec without a deadline completes");
    assert!(
        !again.cached,
        "re-submission must recompute: the expired run may not have populated the cache"
    );

    let _ = std::fs::remove_dir_all(&store);
    server.shutdown();
    server.wait();
}

#[test]
fn bounded_queue_sheds_typed_overloads_that_shed_retry_absorbs() {
    let server = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        max_queue: 1,
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = server.addr().to_string();

    // Occupy the single worker with a long job, then fill the one queue
    // slot; the third distinct submission must be shed, typed.
    let submit_async = |spec: JobSpec| -> Client {
        let mut c = Client::connect(&addr).expect("connect");
        c.send(&Request::Submit {
            spec,
            deadline_ms: 0,
        })
        .expect("send");
        match c.recv().expect("recv") {
            Response::Accepted { .. } => c,
            other => panic!("expected accepted, got {other:?}"),
        }
    };
    let mut slow = JobSpec::new("health", "CPP");
    slow.budget = 2_000_000;
    let _holder = submit_async(slow);
    let _queued = submit_async(JobSpec::new("mst", "BC"));

    let shed_spec = JobSpec::new("treeadd", "BC");
    let mut shed_client = Client::connect(&addr).expect("connect");
    let err = shed_client
        .submit_wait(&shed_spec)
        .expect_err("the queue is full; this submit must be shed");
    assert_eq!(
        err.class(),
        "overloaded",
        "a shed is typed backpressure, not a fault — callers must back off, not blind-retry: {err}"
    );

    let stats = shed_client.stats().expect("stats");
    assert!(stats.shed >= 1, "server counts the shed: {stats:?}");

    // Shed-aware retry (jittered-deterministic backoff) rides out the
    // backpressure and completes once capacity frees up.
    let done = shed_client
        .submit_wait_shed_retry(&shed_spec, 1_000, 2, 0x5EED)
        .expect("shed retry absorbs the overload");
    assert!(
        done.stats
            .get("cycles")
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
            > 0
    );

    server.shutdown();
    server.wait();
}

#[test]
fn restarted_server_answers_repeat_submits_from_the_disk_tier() {
    let store = scratch("restart-store");
    let serve_on_store = || {
        start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            store_dir: Some(store.clone()),
            ..ServerConfig::default()
        })
        .expect("start server")
    };
    let specs = [quick("health", "CPP", 13), quick("mst", "BC", 13)];

    // The first server computes every job and spills it to disk.
    let first = serve_on_store();
    let mut client = Client::connect(&first.addr().to_string()).expect("connect");
    let computed: Vec<_> = specs
        .iter()
        .map(|s| client.submit_wait(s).expect("submit"))
        .collect();
    assert!(computed.iter().all(|o| !o.cached), "a cold store computes");
    first.shutdown();
    first.wait();
    assert_eq!(
        ccpz_count(&store),
        specs.len(),
        "every result spilled as a content-addressed file"
    );

    // A fresh process on the same directory: empty RAM cache, so every
    // repeat must come back from disk without running a simulation.
    let second = serve_on_store();
    let mut client = Client::connect(&second.addr().to_string()).expect("connect");
    for (spec, before) in specs.iter().zip(&computed) {
        let again = client.submit_wait(spec).expect("resubmit");
        assert!(again.cached, "{}: answered from the store", spec.context());
        assert_eq!(again.key, before.key);
        assert_eq!(
            again.stats, before.stats,
            "disk hits return identical stats"
        );
    }
    let stats = client.stats().expect("stats");
    assert!(
        stats.disk_hits >= specs.len() as u64,
        "repeats are disk hits: {stats:?}"
    );
    assert_eq!(
        stats.sims_run, 0,
        "no simulation after a restart: {stats:?}"
    );

    second.shutdown();
    second.wait();
    let _ = std::fs::remove_dir_all(&store);
}
