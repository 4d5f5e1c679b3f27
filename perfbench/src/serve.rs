//! `serve-openloop`: `ccp-served` started in-process with 2 workers, a
//! bounded queue and a disk store tier, driven open-loop on one connection.
//!
//! Arrivals are Poisson at fixed rates and are sent on schedule whatever
//! the server is doing, so a stall delays every later request and each
//! request is timed from when it was due. Requests draw zipf(1.0) over a
//! catalog of distinct small-budget jobs mixing benchmark and `workgen:`
//! workloads on CPP and BC. The simulation per request is small, so the
//! protocol, the queue, the result cache and the store carry a large share
//! of the time; misses write the store and hits read it. The RAM cache
//! holds only a quarter of the catalog, so some hits fall through to disk.
//!
//! Every phase (each rate, each probe of the max-rate search) gets a fresh
//! server and an empty store, so phases do not inherit each other's
//! caches. The generator uses two threads: one sends on schedule, one
//! reads responses. It bypasses `Client::submit_wait` and so repeats its
//! checks: each `accepted` key must equal `JobSpec::cache_key`, and each
//! result's `sum` must match its payload.

use crate::report::{median, percentile, spread, Record};
use crate::spans::Tracer;
use crate::Ctx;
use ccp_errors::{SimError, SimResult};
use ccp_served::{Client, Request, Response, ServerConfig, StatsSnapshot};
use ccp_sim::checkpoint::stats_to_json;
use ccp_sim::JobSpec;
use ccp_store::{entry_cost, DiskTier, TieredStore};
use ccp_workgen::ZipfSampler;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads in the server under test.
const WORKERS: usize = 2;
/// Queue bound: submits beyond it are shed with a typed `overloaded`.
const MAX_QUEUE: usize = 64;
/// Jobs in the popular catalog the zipf draw ranges over.
const HOT: usize = 48;
/// Results the server's RAM cache has room for; the rest of the catalog
/// is served from the disk tier.
const RAM_JOBS: usize = 12;
/// Share of requests that ask for a job no earlier request asked for, so
/// the workers keep simulating and writing the store.
const FRESH_FRAC: f64 = 0.04;
/// Instructions per popular job.
const JOB_BUDGET: usize = 2_000;
/// Instructions per fresh job: large enough that its simulation, not the
/// host's scheduling hiccups, sets the latency tail.
const FRESH_BUDGET: usize = 5_000;
/// Zipf exponent of the request mix.
const SKEW: f64 = 1.0;
/// The two fixed offered rates, requests per second.
pub const LOW_RPS: f64 = 300.0;
pub const HIGH_RPS: f64 = 1_200.0;
/// Requests per phase at the fixed rates and per max-rate probe: enough
/// that p99 has at least ten samples beyond it.
const FIXED_REQUESTS: usize = 3_000;
const PROBE_REQUESTS: usize = 2_000;
/// The latency limit `max_rps` is judged against, on the 99th percentile.
pub const LIMIT_MS: f64 = 25.0;
/// Max-rate search: geometric bisection between these offered rates.
const SEARCH_LO: f64 = 600.0;
const SEARCH_HI: f64 = 9_600.0;
const SEARCH_STEPS: usize = 7;
/// How long after the last due time a request may still complete before
/// it counts as timed out.
const GRACE: Duration = Duration::from_secs(2);

/// Workloads of the popular catalog: benchmarks and `workgen:` streams.
const HOT_WORKLOADS: [&str; 8] = [
    "health",
    "perimeter",
    "treeadd",
    "tsp",
    "181.mcf",
    "130.li",
    "workgen:addr=zipf,small=0.6",
    "workgen:addr=uniform,small=0.45,ptr=0.1,store=0.5,footprint=4096",
];

/// Workloads of the fresh jobs: cheap, similar-cost generators, so the
/// simulation time per miss does not depend on which seed drew which job.
const FRESH_WORKLOADS: [&str; 2] = ["health", "perimeter"];

/// Fresh jobs a phase can use: each phase starts with an empty server, so
/// the same pool serves every phase.
fn fresh_pool() -> usize {
    (FIXED_REQUESTS.max(PROBE_REQUESTS) as f64 * FRESH_FRAC * 4.0 / 3.0) as usize
}

/// The catalog and its oracle: each job's `RunStats` JSON computed by a
/// direct `ccp_sim::run_job` in set-up.
struct Catalog {
    specs: Vec<JobSpec>,
    keys: Vec<String>,
    oracle: Vec<String>,
    stats: Vec<Arc<ccp_pipeline::RunStats>>,
    job_ms: Vec<f64>,
}

/// The popular catalog (ranks `0..HOT`, rank 0 hottest) then the fresh
/// pool. Workloads and designs are assigned round-robin by rank, so the
/// popularity of each kind of job is the same for every seed; the seed
/// picks the generated data.
fn catalog_specs(seed: u64) -> Vec<JobSpec> {
    let job = |k: usize, workload: &str, design: &str| {
        let mut s = JobSpec::new(workload, design);
        s.budget = if k < HOT { JOB_BUDGET } else { FRESH_BUDGET };
        s.seed = seed.wrapping_mul(10_000).wrapping_add(k as u64);
        s
    };
    let design = |k: usize| if k.is_multiple_of(2) { "CPP" } else { "BC" };
    let hot = (0..HOT).map(|k| job(k, HOT_WORKLOADS[(k / 2) % HOT_WORKLOADS.len()], design(k)));
    let fresh = (0..fresh_pool()).map(|k| {
        job(
            HOT + k,
            FRESH_WORKLOADS[(k / 2) % FRESH_WORKLOADS.len()],
            design(k),
        )
    });
    hot.chain(fresh).collect()
}

fn build_catalog(seed: u64) -> SimResult<Catalog> {
    let specs = catalog_specs(seed);
    let mut cat = Catalog {
        keys: specs
            .iter()
            .map(|s| format!("{:016x}", s.cache_key()))
            .collect(),
        oracle: Vec::new(),
        stats: Vec::new(),
        job_ms: Vec::new(),
        specs,
    };
    for s in &cat.specs {
        let t = Instant::now();
        let stats = ccp_sim::run_job(s)?;
        cat.job_ms.push(t.elapsed().as_secs_f64() * 1e3);
        cat.oracle.push(stats_to_json(&stats).to_string());
        cat.stats.push(Arc::new(stats));
    }
    Ok(cat)
}

/// A scratch directory inside the working directory, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> SimResult<ScratchDir> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = PathBuf::from(".perfbench-tmp").join(format!("{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| SimError::io(dir.display().to_string(), &e))?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once the last scratch directory is gone.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A running server with its own empty store.
struct Server {
    handle: ccp_served::ServerHandle,
    addr: String,
    _store: ScratchDir,
}

impl Server {
    fn start(cat: &Catalog) -> SimResult<Server> {
        let store = ScratchDir::new("store")?;
        let per_entry = cat
            .specs
            .iter()
            .map(|s| entry_cost(&s.canonical()))
            .max()
            .unwrap_or(0);
        let handle = ccp_served::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: WORKERS,
            cache_bytes: per_entry * RAM_JOBS,
            store_dir: Some(store.path().to_path_buf()),
            max_queue: MAX_QUEUE,
            ..ServerConfig::default()
        })?;
        let addr = handle.addr().to_string();
        Ok(Server {
            handle,
            addr,
            _store: store,
        })
    }

    fn stats(&self) -> SimResult<StatsSnapshot> {
        Client::connect(&self.addr).and_then(|mut c| c.stats())
    }

    fn stop(self) {
        self.handle.shutdown();
        self.handle.wait();
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    Pending,
    Ok,
    /// Shed, job error, or timed out: misses any latency limit.
    Missed,
    /// A result that fails a check: wrong key, sum or payload.
    Wrong,
}

/// Everything one phase measured. Times are ns since the phase origin.
struct Phase {
    /// Warm-up results that differed from the oracle.
    warm_wrong: usize,
    rate: f64,
    due: Vec<u64>,
    send: Vec<u64>,
    encode: Vec<u64>,
    accepted: Vec<u64>,
    done: Vec<u64>,
    decode_ns: u64,
    decoded: u64,
    outcome: Vec<Outcome>,
    gave_up: u64,
    stats: StatsSnapshot,
    queue_depth_max: u64,
}

impl Phase {
    /// Latency of each request from its due time, in ms. Requests that
    /// missed count as completing when the generator gave up on them.
    fn latencies_ms(&self) -> Vec<f64> {
        (0..self.due.len())
            .map(|i| {
                let end = if self.outcome[i] == Outcome::Ok {
                    self.done[i]
                } else {
                    self.gave_up.max(self.done[i])
                };
                end.saturating_sub(self.due[i]) as f64 * 1e-6
            })
            .collect()
    }

    fn count(&self, o: Outcome) -> usize {
        self.outcome.iter().filter(|&&x| x == o).count()
    }

    /// Requests still outstanding when the last one was sent.
    fn backlog_at_end(&self) -> usize {
        let last = self.send.iter().copied().max().unwrap_or(0);
        (0..self.due.len())
            .filter(|&i| self.outcome[i] != Outcome::Ok || self.done[i] > last)
            .count()
    }

    /// Meets the limit: p99 within it, nothing missed or wrong, and no
    /// growing backlog — at the last send no more requests outstanding
    /// than a system meeting the limit can hold (rate × limit, Little's
    /// law).
    fn meets_limit(&self) -> bool {
        let lat = self.latencies_ms();
        self.count(Outcome::Missed) == 0
            && self.count(Outcome::Wrong) == 0
            && percentile(&lat, 99.0) <= LIMIT_MS
            && self.backlog_at_end() as f64 <= (self.rate * LIMIT_MS / 1e3).max(1.0)
    }

    fn lag_p99_ms(&self) -> f64 {
        let lag: Vec<f64> = (0..self.due.len())
            .map(|i| self.send[i].saturating_sub(self.due[i]) as f64 * 1e-6)
            .collect();
        percentile(&lag, 99.0)
    }

    /// Completed requests per second, from the first due time to the
    /// last completion.
    fn goodput(&self) -> f64 {
        let first = self.due.first().copied().unwrap_or(0);
        let last = (0..self.due.len())
            .filter(|&i| self.outcome[i] == Outcome::Ok)
            .map(|i| self.done[i])
            .max()
            .unwrap_or(first);
        if last <= first {
            return 0.0;
        }
        self.count(Outcome::Ok) as f64 / ((last - first) as f64 * 1e-9)
    }
}

/// Server counters accumulated between two snapshots.
fn delta(after: &StatsSnapshot, before: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        joined: after.joined - before.joined,
        sims_run: after.sims_run - before.sims_run,
        shed: after.shed - before.shed,
        disk_hits: after.disk_hits - before.disk_hits,
        disk_misses: after.disk_misses - before.disk_misses,
        disk_writes: after.disk_writes - before.disk_writes,
        ..after.clone()
    }
}

fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Submits every popular job once, least popular first, closed-loop
/// through `Client::submit_wait`: the disk tier then holds the whole
/// popular catalog and the RAM cache its hottest jobs. Returns the number
/// of results that differ from the oracle.
fn warm_up(server: &Server, cat: &Catalog) -> SimResult<usize> {
    let mut client = Client::connect(&server.addr)?;
    let mut wrong = 0;
    for k in (0..HOT).rev() {
        let out = client.submit_wait(&cat.specs[k])?;
        if out.stats.to_string() != cat.oracle[k] {
            eprintln!(
                "warm-up result for {} differs from run_job",
                cat.specs[k].context()
            );
            wrong += 1;
        }
    }
    Ok(wrong)
}

/// The open-loop schedule: Poisson due times (ns from the phase origin)
/// and the catalog index each request asks for.
fn schedule(rate: f64, n: usize, seed: u64) -> (Vec<u64>, Vec<usize>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let zipf = ZipfSampler::new(HOT, SKEW);
    let (mut due, mut pick) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut t = 0.005;
    let mut fresh = 0;
    for _ in 0..n {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        due.push((t * 1e9) as u64);
        if rng.gen::<f64>() < FRESH_FRAC {
            pick.push(HOT + fresh % fresh_pool());
            fresh += 1;
        } else {
            pick.push(zipf.sample(&mut rng));
        }
    }
    (due, pick)
}

/// Runs `n` Poisson arrivals at `rate` against a fresh, warmed-up server.
fn run_phase(
    cat: &Arc<Catalog>,
    rate: f64,
    n: usize,
    seed: u64,
    sample_queue: bool,
) -> SimResult<Phase> {
    let server = Server::start(cat)?;
    let warm_wrong = warm_up(&server, cat)?;
    let before = server.stats()?;
    let (due, pick) = schedule(rate, n, seed);
    let stream = TcpStream::connect(&server.addr).map_err(|e| SimError::io(&server.addr, &e))?;
    let _ = stream.set_nodelay(true);
    let mut write_half = stream
        .try_clone()
        .map_err(|e| SimError::io(&server.addr, &e))?;
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .map_err(|e| SimError::io(&server.addr, &e))?;
    let origin = Instant::now();
    let give_up = origin + Duration::from_nanos(*due.last().unwrap_or(&0)) + GRACE;
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;

    let (send, encode, recv, queue_depth_max) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut send = vec![0u64; n];
            let mut encode = vec![0u64; n];
            for i in 0..n {
                wait_until(origin + Duration::from_nanos(due[i]));
                let t0 = Instant::now();
                let mut line = Request::Submit {
                    spec: cat.specs[pick[i]].clone(),
                    deadline_ms: 0,
                }
                .to_line();
                line.push('\n');
                encode[i] = t0.elapsed().as_nanos() as u64;
                if write_half.write_all(line.as_bytes()).is_err() {
                    break;
                }
                send[i] = ns(Instant::now());
            }
            (send, encode)
        });
        let receiver = scope.spawn(|| receive(stream, cat, &pick, give_up, origin));
        let mut depth_max = 0;
        if sample_queue {
            if let Ok(mut c) = Client::connect(&server.addr) {
                while !receiver.is_finished() {
                    if let Ok(s) = c.stats() {
                        depth_max = depth_max.max(s.queue_depth);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        let (send, encode) = sender.join().expect("sender thread panicked");
        let recv = receiver.join().expect("receiver thread panicked");
        (send, encode, recv, depth_max)
    });
    let stats = delta(&server.stats()?, &before);
    server.stop();
    Ok(Phase {
        warm_wrong,
        rate,
        due,
        send,
        encode,
        accepted: recv.accepted,
        done: recv.done,
        decode_ns: recv.decode_ns,
        decoded: recv.decoded,
        outcome: recv.outcome,
        gave_up: ns(give_up),
        stats,
        queue_depth_max,
    })
}

struct Received {
    accepted: Vec<u64>,
    done: Vec<u64>,
    outcome: Vec<Outcome>,
    decode_ns: u64,
    decoded: u64,
}

/// Reads responses until every request is terminal or the generator gives
/// up. `accepted`/`overloaded` answer submits in the order they were
/// sent, so the k-th of them belongs to the k-th request.
fn receive(
    stream: TcpStream,
    cat: &Catalog,
    pick: &[usize],
    give_up: Instant,
    origin: Instant,
) -> Received {
    let n = pick.len();
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    let mut r = Received {
        accepted: vec![0; n],
        done: vec![0; n],
        outcome: vec![Outcome::Pending; n],
        decode_ns: 0,
        decoded: 0,
    };
    let mut reader = BufReader::new(stream);
    let mut by_job: HashMap<u64, usize> = HashMap::new();
    let (mut next, mut finished) = (0usize, 0usize);
    let mut buf = Vec::new();
    while finished < n && Instant::now() < give_up {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(_) if buf.ends_with(b"\n") => {}
            Ok(_) => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => break,
        }
        let now = ns(Instant::now());
        let t0 = Instant::now();
        let parsed = std::str::from_utf8(&buf)
            .map_err(|e| SimError::protocol(e.to_string()))
            .and_then(|s| Response::parse(s.trim()));
        r.decode_ns += t0.elapsed().as_nanos() as u64;
        r.decoded += 1;
        buf.clear();
        let mut finish = |i: usize, o: Outcome, r: &mut Received| {
            if r.outcome[i] == Outcome::Pending {
                r.outcome[i] = o;
                r.done[i] = now;
                finished += 1;
            }
        };
        match parsed {
            Ok(Response::Accepted { job, key }) if next < n => {
                let i = next;
                next += 1;
                r.accepted[i] = now;
                by_job.insert(job, i);
                if key != cat.keys[pick[i]] {
                    eprintln!(
                        "accepted key {key} != JobSpec::cache_key {}",
                        cat.keys[pick[i]]
                    );
                    finish(i, Outcome::Wrong, &mut r);
                }
            }
            Ok(Response::Overloaded { .. }) if next < n => {
                let i = next;
                next += 1;
                finish(i, Outcome::Missed, &mut r);
            }
            Ok(Response::Result {
                job, stats, sum, ..
            }) => {
                let Some(&i) = by_job.get(&job) else { continue };
                let text = stats.to_string();
                let ok_sum =
                    !sum.is_empty() && sum == format!("{:016x}", ccp_store::fnv1a(text.as_bytes()));
                let ok = ok_sum && text == cat.oracle[pick[i]];
                if !ok {
                    eprintln!(
                        "result for {} fails its check (sum ok: {ok_sum})",
                        cat.specs[pick[i]].context()
                    );
                }
                finish(i, if ok { Outcome::Ok } else { Outcome::Wrong }, &mut r);
            }
            Ok(Response::JobError { job, class, error }) => {
                let Some(&i) = by_job.get(&job) else { continue };
                eprintln!("job error [{class}] {error}");
                finish(i, Outcome::Missed, &mut r);
            }
            Ok(Response::Progress { .. }) => {}
            Ok(other) => {
                eprintln!("unexpected response {other:?}");
                break;
            }
            Err(e) => {
                eprintln!("undecodable response: {e}");
                break;
            }
        }
    }
    for o in &mut r.outcome {
        if *o == Outcome::Pending {
            *o = Outcome::Missed;
        }
    }
    r
}

/// Counts a fixed-rate phase's requests as operations: every request
/// must complete with a correct result. Warm-up results count too.
fn count_ops(rec: &mut Record, p: &Phase, label: &str) {
    rec.check(p.warm_wrong == 0, || {
        format!("{label} warm-up: {} wrong results", p.warm_wrong)
    });
    for (i, o) in p.outcome.iter().enumerate() {
        rec.check(*o == Outcome::Ok, || format!("{label} request {i}: {o:?}"));
    }
}

/// Geometric bisection for the highest offered rate that meets the limit.
/// Probes that miss the limit are the search's signal, not failures; a
/// wrong result in any probe is one.
fn search_max_rps(cat: &Arc<Catalog>, seed: u64, rec: &mut Record) -> SimResult<f64> {
    let (mut lo, mut hi) = (SEARCH_LO, SEARCH_HI);
    let mut best = None;
    for step in 0..=SEARCH_STEPS {
        // The first probe confirms the bottom of the range.
        let rate = if step == 0 { lo } else { (lo * hi).sqrt() };
        let p = run_phase(
            cat,
            rate,
            PROBE_REQUESTS,
            seed ^ (0xa10 + step as u64),
            false,
        )?;
        let wrong = p.count(Outcome::Wrong) + p.warm_wrong;
        rec.check(wrong == 0, || {
            format!("{wrong} wrong results in max-rate probe at {rate:.0}/s")
        });
        if p.meets_limit() {
            best = Some(rate);
            lo = rate;
        } else if step == 0 {
            break;
        } else {
            hi = rate;
        }
    }
    // A range whose bottom already misses reports the bottom's goodput
    // fraction below it, so the metric stays a positive rate.
    Ok(best.unwrap_or(SEARCH_LO / 2.0))
}

fn setup(seed: u64) -> SimResult<Arc<Catalog>> {
    let cat = build_catalog(seed)?;
    // Server start is part of set-up; each phase then starts its own.
    Server::start(&cat)?.stop();
    Ok(Arc::new(cat))
}

pub fn run(ctx: &Ctx, rec: &mut Record) -> SimResult<()> {
    let (cat, setup_s) = ctx.set_up(|| setup(ctx.seed))?;
    let low = run_phase(&cat, LOW_RPS, FIXED_REQUESTS, ctx.seed ^ 0x10, false)?;
    count_ops(rec, &low, "low-rate");
    let high = run_phase(&cat, HIGH_RPS, FIXED_REQUESTS, ctx.seed ^ 0x20, false)?;
    count_ops(rec, &high, "high-rate");
    let max_rps = search_max_rps(&cat, ctx.seed, rec)?;

    let low_lat = low.latencies_ms();
    let high_lat = high.latencies_ms();
    rec.note(format!(
        "serve-openloop: {WORKERS} workers, queue bound {MAX_QUEUE}, RAM cache for {RAM_JOBS} results, disk store; one connection, Poisson arrivals; zipf({SKEW}) over {HOT} popular jobs plus {:.0}% never-seen jobs, {JOB_BUDGET} instructions each; {FIXED_REQUESTS} requests at {LOW_RPS}/s and at {HIGH_RPS}/s; latency limit {LIMIT_MS} ms on p99; max-rate search {} probes of {PROBE_REQUESTS} requests in [{SEARCH_LO}, {SEARCH_HI}]/s; generator lag p99 {:.3} ms (low) {:.3} ms (high); every phase starts a fresh server and warms it with each popular job once",
        FRESH_FRAC * 100.0,
        SEARCH_STEPS + 1,
        low.lag_p99_ms(),
        high.lag_p99_ms(),
    ));
    rec.prov("budget", JOB_BUDGET);
    rec.prov(
        "rates",
        format!("low={LOW_RPS} high={HIGH_RPS} search={SEARCH_LO}..{SEARCH_HI}"),
    );
    rec.prov(
        "repetitions",
        format!(
            "{FIXED_REQUESTS} requests per fixed rate, {} probes of {PROBE_REQUESTS}",
            SEARCH_STEPS + 1
        ),
    );
    rec.prov("spread_setup_s", format!("{:.4}", spread(&setup_s)));
    rec.prov("setups", setup_s.len());

    rec.metric("setup_s", median(&setup_s), "s", format!("median host time to build the catalog, compute its {} oracle results and start a server", cat.specs.len()));
    rec.metric("throughput", max_rps, "op/s", format!("serve_max_rps: highest offered request rate whose p99 stays within {LIMIT_MS} ms with no growing backlog"));
    rec.metric(
        "p50_ms",
        median(&low_lat),
        "ms",
        format!(
            "serve_p50_ms.low: median latency from due time at {LOW_RPS}/s ({} requests)",
            low_lat.len()
        ),
    );
    rec.metric(
        "tail_ms",
        percentile(&low_lat, 99.0),
        "ms",
        format!(
            "serve_p99_ms.low: 99th-percentile latency at {LOW_RPS}/s ({} requests)",
            low_lat.len()
        ),
    );
    rec.metric(
        "alt_throughput",
        high.goodput(),
        "op/s",
        format!("requests completed per second at offered {HIGH_RPS}/s"),
    );
    rec.metric(
        "alt_p50_ms",
        median(&high_lat),
        "ms",
        format!(
            "serve_p50_ms.high: median latency from due time at {HIGH_RPS}/s ({} requests)",
            high_lat.len()
        ),
    );
    rec.metric(
        "alt_tail_ms",
        percentile(&high_lat, 99.0),
        "ms",
        format!(
            "serve_p99_ms.high: 99th-percentile latency at {HIGH_RPS}/s ({} requests)",
            high_lat.len()
        ),
    );
    Ok(())
}

/// Untraced and traced high-rate phases, with per-request spans, server
/// counter deltas, direct store calls and direct `run_job` timings.
pub fn traced(ctx: &Ctx, tracer: &Tracer, rec: &mut Record) -> SimResult<()> {
    let start = tracer.now_ns();
    let cat = Arc::new(build_catalog(ctx.seed)?);
    tracer.record(
        "serve.setup",
        0,
        None,
        start,
        tracer.now_ns(),
        cat.specs.len() as u64,
    );

    let untraced = run_phase(&cat, HIGH_RPS, FIXED_REQUESTS, ctx.seed ^ 0x20, false)?;
    count_ops(rec, &untraced, "high-rate");
    let traced = run_phase(&cat, HIGH_RPS, FIXED_REQUESTS, ctx.seed ^ 0x20, true)?;
    count_ops(rec, &traced, "high-rate traced");
    let base = tracer.now_ns();
    for i in 0..traced.due.len() {
        let end = if traced.outcome[i] == Outcome::Ok {
            traced.done[i]
        } else {
            traced.gave_up
        };
        let req = tracer.record(
            "serve.request",
            i as u64,
            None,
            base + traced.due[i],
            base + end,
            1,
        );
        let sent = traced.send[i];
        tracer.record(
            "served.encode",
            i as u64,
            Some(req),
            base + sent - traced.encode[i].min(sent),
            base + sent,
            1,
        );
        if traced.accepted[i] > 0 {
            tracer.record(
                "served.accept",
                i as u64,
                Some(req),
                base + sent,
                base + traced.accepted[i],
                1,
            );
            if traced.outcome[i] == Outcome::Ok {
                tracer.record(
                    "served.result",
                    i as u64,
                    Some(req),
                    base + traced.accepted[i],
                    base + traced.done[i],
                    1,
                );
            }
        }
    }
    let (u, t) = (
        median(&untraced.latencies_ms()),
        median(&traced.latencies_ms()),
    );

    let store_dir = ScratchDir::new("tiered")?;
    let disk = DiskTier::open(store_dir.path())?;
    let per_entry = entry_cost(&cat.specs[0].canonical());
    let mut store = TieredStore::new(per_entry * RAM_JOBS, Some(disk));
    let (mut put_ns, mut get_ns) = (0u64, 0u64);
    for (i, s) in cat.specs.iter().enumerate() {
        let (key, canon) = (s.cache_key(), s.canonical());
        let t0 = Instant::now();
        store.put(key, &canon, Arc::clone(&cat.stats[i]));
        put_ns += t0.elapsed().as_nanos() as u64;
    }
    // Newest first: the RAM tier answers the last puts, the disk the rest.
    for (i, s) in cat.specs.iter().enumerate().rev() {
        let (key, canon) = (s.cache_key(), s.canonical());
        let t0 = Instant::now();
        let got = store.get(key, &canon);
        get_ns += t0.elapsed().as_nanos() as u64;
        let same = got.is_some_and(|g| format!("{g:?}") == format!("{:?}", cat.stats[i]));
        rec.check(same, || {
            format!(
                "TieredStore returned a different result for {}",
                s.context()
            )
        });
    }
    let counters = store.counters();
    let jobs = cat.specs.len() as f64;

    let st = &traced.stats;
    let lookups = (st.hits + st.misses + st.joined).max(1);
    let ms = |v: Vec<f64>| v.iter().map(|d| d * 1e-6).collect::<Vec<f64>>();
    let n = traced.due.len() as f64;
    rec.metric(
        "trace.overhead_frac.serve-openloop",
        t / u - 1.0,
        "ratio",
        format!("median latency at {HIGH_RPS}/s traced {t:.3} ms over untraced {u:.3} ms, minus 1"),
    );
    rec.metric(
        "job.run_ms",
        median(&cat.job_ms),
        "ms",
        format!(
            "median host ms of a direct run_job per catalog job ({} jobs)",
            cat.specs.len()
        ),
    );
    rec.metric(
        "served.encode_us",
        traced.encode.iter().sum::<u64>() as f64 / n * 1e-3,
        "us",
        "mean host us in Request::to_line per submit",
    );
    rec.metric(
        "served.decode_us",
        traced.decode_ns as f64 / traced.decoded.max(1) as f64 * 1e-3,
        "us",
        "mean host us in Response::parse per response line",
    );
    rec.metric(
        "served.accept_ms",
        median(&ms(tracer.durations("served.accept"))),
        "ms",
        "median ms from sending a submit to its accepted",
    );
    rec.metric(
        "served.result_ms",
        median(&ms(tracer.durations("served.result"))),
        "ms",
        "median ms from accepted to result",
    );
    rec.metric(
        "served.hit_rate",
        st.hits as f64 / lookups as f64,
        "ratio",
        "RAM result-cache hits over lookups, server counter deltas over the timed phase",
    );
    rec.metric(
        "served.sims_run",
        st.sims_run as f64,
        "count",
        "simulations the workers ran in the timed phase",
    );
    rec.metric(
        "served.shed",
        st.shed as f64,
        "count",
        "submits shed by the bounded queue",
    );
    rec.metric(
        "served.queue_depth_max",
        traced.queue_depth_max as f64,
        "count",
        "largest queue depth, sampled every 10 ms",
    );
    rec.metric(
        "store.disk_hits",
        st.disk_hits as f64,
        "count",
        "results served from the disk tier in the timed phase",
    );
    rec.metric(
        "store.disk_misses",
        st.disk_misses as f64,
        "count",
        "disk-tier lookups with no entry",
    );
    rec.metric(
        "store.disk_writes",
        st.disk_writes as f64,
        "count",
        "entries written to the disk tier",
    );
    rec.metric("store.put_us", put_ns as f64 / jobs * 1e-3, "us", format!("mean us per direct TieredStore::put of a catalog result ({jobs} puts, RAM for {RAM_JOBS})"));
    rec.metric(
        "store.get_us",
        get_ns as f64 / jobs * 1e-3,
        "us",
        format!(
            "mean us per direct TieredStore::get ({} from RAM, {} from disk)",
            counters.ram_hits, counters.disk_hits
        ),
    );
    rec.metric(
        "loadgen.lag_ms_p99",
        traced.lag_p99_ms(),
        "ms",
        "99th-percentile lateness of sends against the Poisson schedule",
    );
    Ok(())
}
