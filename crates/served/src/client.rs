//! Blocking client for the `ccp-served` protocol, plus the zipf load
//! generator behind `ccp-client bench`.
//!
//! The bench replays a closed-loop request mix: `conns` connections each
//! issue submissions back-to-back, picking among `distinct` job specs by
//! a zipf(`skew`) draw ([`ccp_workgen::ZipfSampler`] — the same model
//! the synthetic workload generator uses for addresses). Popular jobs
//! repeat, so a correct result cache turns almost all of the mix into
//! hits; the report's hit rate and throughput are the serving layer's
//! two headline numbers.

use crate::protocol::{Request, Response, StatsSnapshot};
use ccp_errors::{SimError, SimResult};
use ccp_sim::json::Json;
use ccp_sim::JobSpec;
use ccp_store::fnv1a;
use ccp_workgen::ZipfSampler;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Deterministic jittered backoff for retrying typed `overloaded` sheds:
/// exponential in `attempt` (capped), plus a jitter term that is a pure
/// function of `(salt, attempt)` — same inputs, same backoff, so a run
/// under a fixed seed replays its retry timing exactly, but distinct
/// callers (distinct salts) still decorrelate their retries.
pub fn jittered_backoff_ms(base_ms: u64, attempt: u32, salt: u64) -> u64 {
    if base_ms == 0 {
        return 0;
    }
    let exp = base_ms.saturating_mul(1u64 << attempt.min(6));
    // splitmix64 finalizer over (salt, attempt).
    let mut z = salt ^ ((attempt as u64) << 32) ^ 0x9E37_79B9_7F4A_7C15u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    exp.saturating_add(z % (exp / 2 + 1))
}

/// One blocking protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Terminal outcome of one submission.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Server-assigned job id.
    pub job: u64,
    /// The job's cache key, as reported by `accepted`.
    pub key: String,
    /// Whether the server answered from the result cache.
    pub cached: bool,
    /// `progress` events observed before the result.
    pub progress_events: u64,
    /// The statistics object (same shape as `ccp-sim --json` cells).
    pub stats: Json,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:4161`).
    pub fn connect(addr: &str) -> SimResult<Client> {
        let stream = TcpStream::connect(addr).map_err(|e| SimError::io(addr, &e))?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone().map_err(|e| SimError::io(addr, &e))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line.
    pub fn send(&mut self, req: &Request) -> SimResult<()> {
        let mut line = req.to_line();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| SimError::io("socket", &e))
    }

    /// Blocks for the next response line.
    pub fn recv(&mut self) -> SimResult<Response> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| SimError::io("socket", &e))?;
        if n == 0 {
            // Clean EOF is a *dead connection*, not a protocol violation
            // and not a timeout: the peer hung up in an orderly way.
            return Err(SimError::io(
                "peer",
                &std::io::Error::new(ErrorKind::UnexpectedEof, "connection closed (clean EOF)"),
            ));
        }
        Response::parse(line.trim())
    }

    /// Submits `spec` and blocks until its terminal response, consuming
    /// progress events along the way. Job errors come back as the typed
    /// [`SimError`] the server-side class encodes.
    pub fn submit_wait(&mut self, spec: &JobSpec) -> SimResult<JobOutcome> {
        self.submit_wait_deadline(spec, 0)
    }

    /// [`Client::submit_wait`] with a server-side deadline in milliseconds
    /// (0 = none): the server cancels the job once it elapses and never
    /// completes it into the cache or store.
    ///
    /// Every accepted key is checked against the locally computed
    /// [`JobSpec::cache_key`], and every result's `sum` integrity field
    /// against the payload — a mismatch means the bytes were mangled in
    /// transit and surfaces as a protocol error rather than a wrong result.
    pub fn submit_wait_deadline(
        &mut self,
        spec: &JobSpec,
        deadline_ms: u64,
    ) -> SimResult<JobOutcome> {
        self.send(&Request::Submit {
            spec: spec.clone(),
            deadline_ms,
        })?;
        let want_key = format!("{:016x}", spec.cache_key());
        let mut job = 0u64;
        let mut key = String::new();
        let mut progress_events = 0u64;
        loop {
            match self.recv()? {
                Response::Accepted { job: id, key: k } => {
                    if k != want_key {
                        return Err(SimError::protocol(format!(
                            "accepted key mismatch: expected {want_key}, got {k}"
                        )));
                    }
                    job = id;
                    key = k;
                }
                Response::Progress { job: id, .. } if id == job => progress_events += 1,
                Response::Result {
                    job: id,
                    cached,
                    stats,
                    sum,
                } if id == job => {
                    let computed = format!("{:016x}", fnv1a(stats.to_string().as_bytes()));
                    if computed != sum {
                        return Err(SimError::protocol(format!(
                            "result integrity sum mismatch: payload hashes to \
                             {computed}, server sent {sum}"
                        )));
                    }
                    return Ok(JobOutcome {
                        job,
                        key,
                        cached,
                        progress_events,
                        stats,
                    });
                }
                Response::JobError {
                    job: id,
                    class,
                    error,
                } if id == job => return Err(SimError::from_wire(&class, error)),
                Response::Overloaded { depth, limit } => {
                    return Err(SimError::overloaded(format!(
                        "queue full ({depth}/{limit})"
                    )))
                }
                Response::ShuttingDown { detail } => return Err(SimError::shutdown(detail)),
                Response::ProtocolError { error } => return Err(SimError::protocol(error)),
                // A response for another job on a shared connection, or a
                // stray pong: skip.
                _ => {}
            }
        }
    }

    /// [`Client::submit_wait`] that absorbs typed `overloaded` sheds:
    /// each shed sleeps [`jittered_backoff_ms`]`(backoff_ms, shed#, salt)`
    /// and resubmits, up to `max_sheds` consecutive sheds. Everything
    /// else (results, job errors, faults) passes through unchanged.
    pub fn submit_wait_shed_retry(
        &mut self,
        spec: &JobSpec,
        max_sheds: u32,
        backoff_ms: u64,
        salt: u64,
    ) -> SimResult<JobOutcome> {
        let mut sheds = 0u32;
        loop {
            match self.submit_wait(spec) {
                Err(e) if e.class() == "overloaded" && sheds < max_sheds => {
                    thread::sleep(Duration::from_millis(jittered_backoff_ms(
                        backoff_ms.max(1),
                        sheds,
                        salt,
                    )));
                    sheds += 1;
                }
                other => return other,
            }
        }
    }

    /// Fetches the server's counter snapshot.
    pub fn stats(&mut self) -> SimResult<StatsSnapshot> {
        self.send(&Request::Stats)?;
        loop {
            match self.recv()? {
                Response::Stats(s) => return Ok(s),
                Response::ProtocolError { error } => return Err(SimError::protocol(error)),
                _ => {}
            }
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> SimResult<()> {
        self.send(&Request::Ping)?;
        loop {
            match self.recv()? {
                Response::Pong => return Ok(()),
                Response::ProtocolError { error } => return Err(SimError::protocol(error)),
                _ => {}
            }
        }
    }

    /// Asks the server to drain and waits for the acknowledgement.
    pub fn shutdown(&mut self) -> SimResult<String> {
        self.send(&Request::Shutdown)?;
        loop {
            match self.recv()? {
                Response::ShuttingDown { detail } => return Ok(detail),
                Response::ProtocolError { error } => return Err(SimError::protocol(error)),
                _ => {}
            }
        }
    }
}

/// Load-generator tunables.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Server address.
    pub addr: String,
    /// Concurrent closed-loop connections.
    pub conns: usize,
    /// Total submissions across all connections.
    pub requests: usize,
    /// Distinct job specs in the mix (zipf ranks).
    pub distinct: usize,
    /// Zipf skew (1.0 = classic; 0.0 = uniform).
    pub skew: f64,
    /// Instruction budget per job (kept small: the bench measures the
    /// serving layer, not the simulator).
    pub budget: usize,
    /// Design short name for every job.
    pub design: String,
    /// Workload name or `workgen:` spec; the mix varies the seed.
    pub workload: String,
    /// Base seed: job rank `r` runs with seed `seed + r`.
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            addr: String::new(),
            conns: 4,
            requests: 400,
            distinct: 32,
            skew: 1.0,
            budget: 2_000,
            design: "CPP".into(),
            workload: "workgen:addr=uniform,small=0.5,footprint=4096".into(),
            seed: 1,
        }
    }
}

/// What the load generator measured.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Submissions that returned a result.
    pub completed: u64,
    /// Submissions that returned an error.
    pub errors: u64,
    /// Wall-clock for the whole run, seconds.
    pub wall_secs: f64,
    /// Completed requests per second.
    pub throughput: f64,
    /// Latency percentiles over completed requests, microseconds.
    pub p50_us: u64,
    /// 90th percentile latency, microseconds.
    pub p90_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Server-side counter deltas over the run.
    pub hits: u64,
    /// Joined in-flight submissions (server delta).
    pub joined: u64,
    /// Cache misses (server delta).
    pub misses: u64,
    /// Simulations actually executed (server delta).
    pub sims_run: u64,
    /// `(hits + joined) / submitted` over the run.
    pub hit_rate: f64,
}

impl BenchReport {
    /// Renders the report as JSON (for `ccp-client bench --json`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("completed", Json::Num(self.completed as f64)),
            ("errors", Json::Num(self.errors as f64)),
            ("wall_secs", Json::Num(self.wall_secs)),
            ("throughput_rps", Json::Num(self.throughput)),
            ("p50_us", Json::Num(self.p50_us as f64)),
            ("p90_us", Json::Num(self.p90_us as f64)),
            ("p99_us", Json::Num(self.p99_us as f64)),
            ("mean_us", Json::Num(self.mean_us)),
            ("hits", Json::Num(self.hits as f64)),
            ("joined", Json::Num(self.joined as f64)),
            ("misses", Json::Num(self.misses as f64)),
            ("sims_run", Json::Num(self.sims_run as f64)),
            ("hit_rate", Json::Num(self.hit_rate)),
        ])
    }

    /// Human-readable summary block.
    pub fn render(&self) -> String {
        format!(
            "completed {} ({} errors) in {:.3}s -> {:.1} req/s\n\
             latency us: p50={} p90={} p99={} mean={:.1}\n\
             cache: {} hits + {} joined / {} misses ({} sims) -> hit rate {:.1}%",
            self.completed,
            self.errors,
            self.wall_secs,
            self.throughput,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.mean_us,
            self.hits,
            self.joined,
            self.misses,
            self.sims_run,
            self.hit_rate * 100.0,
        )
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let ix = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[ix.min(sorted.len() - 1)]
}

/// Runs the closed-loop zipf bench against a live server.
pub fn run_bench(cfg: &BenchConfig) -> SimResult<BenchReport> {
    if cfg.distinct == 0 || cfg.requests == 0 || cfg.conns == 0 {
        return Err(SimError::spec("bench needs conns, requests, distinct >= 1"));
    }
    let mut control = Client::connect(&cfg.addr)?;
    let before = control.stats()?;

    let sampler = Arc::new(ZipfSampler::new(cfg.distinct, cfg.skew));
    let cfg = Arc::new(cfg.clone());
    #[expect(
        clippy::disallowed_methods,
        reason = "measures the bench's wall time for its throughput line; never feeds a simulation"
    )]
    let start = Instant::now();
    let mut threads = Vec::new();
    for t in 0..cfg.conns {
        let sampler = Arc::clone(&sampler);
        let cfg = Arc::clone(&cfg);
        // Split `requests` across connections, remainder to the first.
        let share = cfg.requests / cfg.conns + if t < cfg.requests % cfg.conns { 1 } else { 0 };
        threads.push(thread::spawn(move || -> SimResult<(Vec<u64>, u64)> {
            let mut client = Client::connect(&cfg.addr)?;
            let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (0x9E37 + t as u64));
            let mut latencies = Vec::with_capacity(share);
            let mut errors = 0u64;
            for _ in 0..share {
                let rank = sampler.sample(&mut rng) as u64;
                let mut spec = JobSpec::new(cfg.workload.clone(), cfg.design.clone());
                spec.budget = cfg.budget;
                spec.seed = cfg.seed + rank;
                #[expect(
                    clippy::disallowed_methods,
                    reason = "measures the round trip the bench reports; never feeds a simulation"
                )]
                let t0 = Instant::now();
                // Typed sheds are absorbed here (jittered-deterministic
                // backoff, salted by connection), so an overloaded server
                // degrades bench throughput instead of erroring out.
                match client.submit_wait_shed_retry(
                    &spec,
                    100,
                    2,
                    cfg.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ) {
                    Ok(_) => latencies.push(t0.elapsed().as_micros() as u64),
                    Err(_) => errors += 1,
                }
            }
            Ok((latencies, errors))
        }));
    }

    let mut latencies = Vec::with_capacity(cfg.requests);
    let mut errors = 0u64;
    for t in threads {
        let (lats, errs) = t
            .join()
            .map_err(|_| SimError::protocol("bench connection thread panicked"))??;
        latencies.extend(lats);
        errors += errs;
    }
    let wall_secs = start.elapsed().as_secs_f64().max(1e-9);
    let after = control.stats()?;

    latencies.sort_unstable();
    let completed = latencies.len() as u64;
    let submitted = (after.submitted - before.submitted).max(1);
    let hits = after.hits - before.hits;
    let joined = after.joined - before.joined;
    Ok(BenchReport {
        completed,
        errors,
        wall_secs,
        throughput: completed as f64 / wall_secs,
        p50_us: percentile(&latencies, 0.50),
        p90_us: percentile(&latencies, 0.90),
        p99_us: percentile(&latencies, 0.99),
        mean_us: if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
        },
        hits,
        joined,
        misses: after.misses - before.misses,
        sims_run: after.sims_run - before.sims_run,
        hit_rate: (hits + joined) as f64 / submitted as f64,
    })
}
