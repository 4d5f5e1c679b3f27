//! The simulation server: listener, connection handlers, and the worker
//! pool.
//!
//! ## Threading model
//!
//! One listener thread accepts connections (non-blocking, polling the
//! drain flag). Each connection gets a *reader* thread (parses request
//! lines, answers control requests inline, enqueues jobs) and a *writer*
//! thread (drains an mpsc channel of pre-serialized lines onto the
//! socket). Every message destined for a connection — replies from its
//! own reader, results and progress from worker threads — funnels
//! through that single writer, so concurrent jobs can never interleave
//! torn JSON on the wire.
//!
//! A fixed pool of worker threads pops the FIFO job queue and runs each
//! job through [`ccp_sim::run_job_ctl`] — the same guarded core a sweep
//! cell uses, so a panicking or runaway simulation is returned to the
//! submitter as a typed [`job_error`] while the worker thread survives.
//!
//! ## Shutdown
//!
//! `begin_drain` (SIGINT/SIGTERM in the binary, or a `shutdown` request)
//! flips one flag: the listener stops accepting, new submissions are
//! refused with a typed `shutting_down` response, and workers finish
//! everything already queued before exiting. [`ServerHandle::wait`]
//! returns once the last in-flight job has been delivered.
//!
//! [`job_error`]: crate::protocol::Response::JobError

use crate::cache::{Flight, Lookup, ResultCache};
use crate::protocol::{Request, Response, StatsSnapshot};
use crate::sync::{CondvarExt, LockExt};
use ccp_errors::{SimError, SimResult};
use ccp_sim::checkpoint::stats_to_json;
use ccp_sim::{run_job_ctl, JobCtl, JobSpec};
use ccp_store::{fnv1a, DiskTier};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Longest accepted request line, including the newline. Guards the
/// per-connection read buffer against an unframed flood.
pub const MAX_LINE: usize = 1 << 20;

/// Per-connection socket read timeout: the poll slice at which an idle
/// reader re-checks the drain flag, not a deadline — the connection
/// stays open across timeouts.
pub const READ_POLL: Duration = Duration::from_millis(200);

/// Tunables for [`start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads — the bound on concurrently running simulations.
    pub workers: usize,
    /// RAM result-cache budget in estimated bytes (see
    /// [`ccp_store::entry_cost`]).
    pub cache_bytes: usize,
    /// Directory for the cold disk tier of the result store. `None`
    /// disables disk spill (RAM cache only).
    pub store_dir: Option<PathBuf>,
    /// Bound on the job queue. A submit that would push the queue past
    /// this limit is shed with a typed `overloaded` response instead of
    /// being accepted. `0` means unbounded.
    pub max_queue: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            cache_bytes: 4 << 20,
            store_dir: None,
            max_queue: 0,
        }
    }
}

/// A waiter parked on an in-flight cache entry: the submission's job id
/// plus the submitting connection's writer channel.
struct Waiter {
    job: u64,
    tx: Sender<String>,
}

/// A queued (leader) job.
struct JobState {
    id: u64,
    key: u64,
    flight: Flight,
    spec: JobSpec,
    /// Set by the progress callback once the deadline has passed; the
    /// guarded run stops at its next check.
    cancel: AtomicBool,
    /// Absolute deadline from the submit's `deadline_ms`, if any. A job
    /// past this instant is cancelled and reported as a timeout; its
    /// result (if any) is discarded before it can reach the cache/store.
    deadline: Option<Instant>,
    tx: Sender<String>,
}

impl JobState {
    #[expect(
        clippy::disallowed_methods,
        reason = "a submit deadline is wall-clock by contract; it never feeds a simulation"
    )]
    fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Cache and job queue behind the server's only lock: a submission's
/// lookup and enqueue are atomic with respect to a worker's pop and
/// complete, with no lock order to keep.
struct Inner {
    cache: ResultCache<Waiter>,
    queue: VecDeque<Arc<JobState>>,
}

struct Shared {
    state: Mutex<Inner>,
    /// Waits on `state`; signalled when a job is queued or a drain begins.
    queue_cv: Condvar,
    draining: AtomicBool,
    next_id: AtomicU64,
    workers: usize,
    max_queue: usize,
    // The cold tier is lock-free (&self methods over atomics + the
    // filesystem), so workers consult and fill it without touching the
    // `state` lock.
    disk: Option<DiskTier>,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    sims_run: AtomicU64,
    in_flight: AtomicU64,
    accept_errors: AtomicU64,
    shed: AtomicU64,
    deadline_expired: AtomicU64,
}

impl Shared {
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // A worker that saw `draining` false under `state` is waiting by
        // the time this lock is free, so the notify cannot be lost.
        drop(self.state.lock_unpoisoned());
        self.queue_cv.notify_all();
    }

    fn snapshot(&self) -> StatsSnapshot {
        let (counters, entries, cache_bytes, queue_depth) = {
            let inner = self.state.lock_unpoisoned();
            (
                inner.cache.counters(),
                inner.cache.entries() as u64,
                inner.cache.bytes() as u64,
                inner.queue.len() as u64,
            )
        };
        let disk = self.disk.as_ref().map(|d| d.counters()).unwrap_or_default();
        StatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            sims_run: self.sims_run.load(Ordering::Relaxed),
            hits: counters.hits,
            joined: counters.joined,
            misses: counters.misses,
            evictions: counters.evictions,
            entries,
            queue_depth,
            in_flight: self.in_flight.load(Ordering::Relaxed),
            cache_bytes,
            disk_hits: disk.hits,
            disk_misses: disk.misses,
            disk_writes: disk.writes,
            workers: self.workers as u64,
            draining: u64::from(self.draining.load(Ordering::SeqCst)),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            disk_quarantined: disk.quarantined,
        }
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] then [`ServerHandle::wait`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a drain has begun (via [`shutdown`](Self::shutdown), a
    /// client `shutdown` request, or a signal in the binary).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Begins a graceful drain: stop accepting, refuse new submissions
    /// with a typed response, finish queued and in-flight jobs.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Blocks until the listener and every worker have exited. Only
    /// returns after a drain has begun.
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Binds, spawns the listener and the worker pool, and returns
/// immediately.
pub fn start(config: ServerConfig) -> SimResult<ServerHandle> {
    let listener = TcpListener::bind(&config.addr).map_err(|e| SimError::io(&config.addr, &e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| SimError::io(&config.addr, &e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| SimError::io(&config.addr, &e))?;

    let workers = config.workers.max(1);
    let disk = match &config.store_dir {
        None => None,
        Some(dir) => Some(DiskTier::open(dir)?),
    };
    let shared = Arc::new(Shared {
        state: Mutex::new(Inner {
            cache: ResultCache::new(config.cache_bytes),
            queue: VecDeque::new(),
        }),
        queue_cv: Condvar::new(),
        draining: AtomicBool::new(false),
        next_id: AtomicU64::new(0),
        workers,
        max_queue: config.max_queue,
        disk,
        submitted: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        sims_run: AtomicU64::new(0),
        in_flight: AtomicU64::new(0),
        accept_errors: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        deadline_expired: AtomicU64::new(0),
    });

    let mut threads = Vec::with_capacity(workers + 1);
    for i in 0..workers {
        let shared = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name(format!("ccp-served-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| SimError::io("worker", &e))?,
        );
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name("ccp-served-listener".into())
                .spawn(move || listener_loop(listener, &shared))
                .map_err(|e| SimError::io("listener", &e))?,
        );
    }
    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

fn listener_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(shared);
                // Connection threads are detached: they die with their
                // sockets, and must not delay a drained server's exit.
                let _ = thread::Builder::new()
                    .name("ccp-served-conn".into())
                    .spawn(move || handle_conn(stream, &shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => {
                // A real accept failure (EMFILE, ECONNABORTED, ...) is
                // still survivable, but no longer invisible: it lands in
                // the `accept_errors` counter surfaced by `stats`.
                shared.accept_errors.fetch_add(1, Ordering::Relaxed);
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut inner = shared.state.lock_unpoisoned();
            loop {
                if let Some(j) = inner.queue.pop_front() {
                    break Some(j);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                inner = shared.queue_cv.wait_unpoisoned(inner);
            }
        };
        let Some(job) = job else { return };
        shared.in_flight.fetch_add(1, Ordering::Relaxed);
        // A job whose deadline passed while it sat in the queue is not
        // run at all (and must not be served from disk either — the
        // submitter's contract is "cancelled, not completed").
        let expired_in_queue = job.deadline_expired();
        // Cold-tier consult happens on the worker thread, off the `state`
        // lock: a verified disk entry skips the simulation entirely.
        let disk_hit = if expired_in_queue {
            None
        } else {
            shared
                .disk
                .as_ref()
                .and_then(|d| d.get_stats(job.key, &job.spec.canonical()))
        };
        let from_disk = disk_hit.is_some();
        let result = if expired_in_queue {
            Err(SimError::timeout(
                job.spec.context(),
                "deadline expired before the job started",
            ))
        } else if let Some(stats) = disk_hit {
            Ok(stats)
        } else {
            shared.sims_run.fetch_add(1, Ordering::Relaxed);
            let progress = |done: u64, total: u64| {
                // Deadline enforcement piggybacks on the progress stream:
                // an expired job is cancelled cooperatively.
                if job.deadline_expired() {
                    job.cancel.store(true, Ordering::SeqCst);
                }
                let _ = job.tx.send(
                    Response::Progress {
                        job: job.id,
                        done,
                        total,
                    }
                    .to_line(),
                );
                let inner = shared.state.lock_unpoisoned();
                inner.cache.for_each_waiter(job.key, job.flight, |w| {
                    let _ = w.tx.send(
                        Response::Progress {
                            job: w.job,
                            done,
                            total,
                        }
                        .to_line(),
                    );
                });
            };
            let ctl = JobCtl {
                cancel: Some(&job.cancel),
                progress: Some(&progress),
                ..Default::default()
            };
            run_job_ctl(&job.spec, &ctl)
        };
        // A result that arrives past its deadline — whether it ran to
        // completion anyway or was cancelled mid-run — is reported as a
        // timeout and discarded before the cache/store sees it.
        let result = if job.deadline.is_some() && job.deadline_expired() {
            shared.deadline_expired.fetch_add(1, Ordering::Relaxed);
            Err(SimError::timeout(
                job.spec.context(),
                "deadline expired; result discarded",
            ))
        } else {
            result
        };

        // Success pairs the shared stats with their one-time JSON
        // rendering, so delivery can't reach a "completed but no stats"
        // state that would need an `expect` to rule out.
        let outcome: Result<(Arc<ccp_pipeline::RunStats>, ccp_sim::json::Json), SimError> = result
            .map(|s| {
                let s = Arc::new(s);
                let json = stats_to_json(&s);
                (s, json)
            });
        let stats = outcome.as_ref().ok().map(|(s, _)| Arc::clone(s));
        // Spill fresh results to the cold tier (also off the `state`
        // lock); a failed write only costs a future recompute.
        if !from_disk {
            if let (Some(disk), Some(stats)) = (&shared.disk, &stats) {
                let _ = disk.put_stats(job.key, &job.spec.canonical(), stats);
            }
        }
        let waiters =
            shared
                .state
                .lock_unpoisoned()
                .cache
                .complete(job.key, job.flight, stats.as_ref());
        let response = match &outcome {
            Ok((_, json)) => Ok(json),
            Err(e) => Err(e),
        };
        deliver(shared, &job.tx, job.id, from_disk, response);
        for w in waiters {
            deliver(shared, &w.tx, w.job, true, response);
        }
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The `sum` integrity field for a result payload: FNV-1a over the
/// canonical rendering of the stats object, as fixed-width hex (a string,
/// because `Json::Num` is an f64 and would mangle 64-bit hashes).
fn stats_sum(stats: &ccp_sim::json::Json) -> String {
    format!("{:016x}", fnv1a(stats.to_string().as_bytes()))
}

/// Sends the terminal response for one submission and bumps the outcome
/// counters.
fn deliver(
    shared: &Shared,
    tx: &Sender<String>,
    job: u64,
    cached: bool,
    outcome: Result<&ccp_sim::json::Json, &SimError>,
) {
    let line = match outcome {
        Ok(stats) => {
            shared.completed.fetch_add(1, Ordering::Relaxed);
            Response::Result {
                job,
                cached,
                stats: stats.clone(),
                sum: stats_sum(stats),
            }
            .to_line()
        }
        Err(e) => {
            shared.failed.fetch_add(1, Ordering::Relaxed);
            Response::JobError {
                job,
                class: e.class().to_string(),
                error: e.to_string(),
            }
            .to_line()
        }
    };
    let _ = tx.send(line);
}

fn handle_conn(stream: TcpStream, shared: &Arc<Shared>) {
    // A finite read timeout keeps the reader loop responsive to server
    // drain even on an idle connection; NODELAY because the protocol is
    // small request/response lines and Nagle + delayed ACK would add
    // ~40ms to every cached hit.
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = channel::<String>();
    let writer = thread::Builder::new()
        .name("ccp-served-writer".into())
        .spawn(move || {
            let mut w = BufWriter::new(write_half);
            // Each channel message is one complete line; the newline is
            // appended here so a line is always flushed whole.
            while let Ok(line) = rx.recv() {
                if w.write_all(line.as_bytes())
                    .and_then(|_| w.write_all(b"\n"))
                    .and_then(|_| w.flush())
                    .is_err()
                {
                    return;
                }
            }
        });

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        let remaining = (MAX_LINE + 1).saturating_sub(line.len());
        if remaining == 0 {
            let _ = tx.send(
                Response::ProtocolError {
                    error: format!("request line exceeds {MAX_LINE} bytes"),
                }
                .to_line(),
            );
            break;
        }
        match (&mut reader).take(remaining as u64).read_line(&mut line) {
            Ok(0) => {
                // EOF; a final unterminated line is still served.
                if !line.trim().is_empty() {
                    handle_request(line.trim(), &tx, shared);
                }
                break;
            }
            Ok(_) if line.ends_with('\n') => {
                let trimmed = line.trim();
                if !trimmed.is_empty() {
                    handle_request(trimmed, &tx, shared);
                }
                line.clear();
            }
            // Hit the `take` cap mid-line: loop back to report overflow.
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Partial bytes stay in `line` and the wait goes on, unless
                // a drain has begun: a peer stalled mid-frame is then
                // closed, while an idle one stays to be refused by type.
                if !line.is_empty() && shared.draining.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    drop(tx);
    if let Ok(w) = writer {
        let _ = w.join();
    }
}

fn handle_request(line: &str, tx: &Sender<String>, shared: &Arc<Shared>) {
    let req = match Request::parse(line) {
        Ok(req) => req,
        Err(e) => {
            let _ = tx.send(
                Response::ProtocolError {
                    error: e.to_string(),
                }
                .to_line(),
            );
            return;
        }
    };
    match req {
        Request::Ping => {
            let _ = tx.send(Response::Pong.to_line());
        }
        Request::Stats => {
            let _ = tx.send(Response::Stats(shared.snapshot()).to_line());
        }
        Request::Shutdown => {
            shared.begin_drain();
            let _ = tx.send(
                Response::ShuttingDown {
                    detail: "draining; queued and in-flight jobs will complete".into(),
                }
                .to_line(),
            );
        }
        Request::Submit { spec, deadline_ms } => submit_job(spec, deadline_ms, tx, shared),
    }
}

fn submit_job(spec: JobSpec, deadline_ms: u64, tx: &Sender<String>, shared: &Arc<Shared>) {
    if shared.draining.load(Ordering::SeqCst) {
        let _ = tx.send(
            Response::ShuttingDown {
                detail: "server is draining; submission refused".into(),
            }
            .to_line(),
        );
        return;
    }
    shared.submitted.fetch_add(1, Ordering::Relaxed);
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
    let key = spec.cache_key();
    if let Err(e) = spec.resolve() {
        shared.failed.fetch_add(1, Ordering::Relaxed);
        let _ = tx.send(
            Response::Accepted {
                job: id,
                key: format!("{key:016x}"),
            }
            .to_line(),
        );
        let _ = tx.send(
            Response::JobError {
                job: id,
                class: e.class().to_string(),
                error: e.to_string(),
            }
            .to_line(),
        );
        return;
    }
    let canonical = spec.canonical();
    #[expect(
        clippy::disallowed_methods,
        reason = "a submit deadline is wall-clock by contract; it never feeds a simulation"
    )]
    let deadline = (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms));
    let waiter = Waiter {
        job: id,
        tx: tx.clone(),
    };
    // `accepted` is sent while `state` is held so it is ordered before
    // any result a completing worker could deliver to a parked waiter
    // (workers take `state` to find waiters). A shed sends `overloaded`
    // *instead* of `accepted`: no job id ever existed for the client.
    let accepted = Response::Accepted {
        job: id,
        key: format!("{key:016x}"),
    }
    .to_line();
    let hit = {
        let mut inner = shared.state.lock_unpoisoned();
        match inner.cache.lookup(key, &canonical, waiter) {
            Lookup::Hit(stats) => {
                let _ = tx.send(accepted);
                Some(stats)
            }
            Lookup::Joined => {
                let _ = tx.send(accepted);
                None
            }
            Lookup::Miss(waiter, flight) => {
                // Bounded-queue backpressure: only a miss (which would
                // enqueue real work) can be shed; hits and joined flights
                // cost no queue slot and are served even under pressure.
                let depth = inner.queue.len();
                if shared.max_queue > 0 && depth >= shared.max_queue {
                    // Withdraw the in-flight entry `lookup` just created
                    // (no waiters have joined: we still hold `state`).
                    inner.cache.complete(key, flight, None);
                    shared.shed.fetch_add(1, Ordering::Relaxed);
                    let _ = waiter.tx.send(
                        Response::Overloaded {
                            depth: depth as u64,
                            limit: shared.max_queue as u64,
                        }
                        .to_line(),
                    );
                    return;
                }
                let job = Arc::new(JobState {
                    id,
                    key,
                    flight,
                    spec,
                    cancel: AtomicBool::new(false),
                    deadline,
                    tx: waiter.tx,
                });
                inner.queue.push_back(job);
                shared.queue_cv.notify_one();
                let _ = tx.send(accepted);
                None
            }
        }
    };
    if let Some(stats) = hit {
        shared.completed.fetch_add(1, Ordering::Relaxed);
        let json = stats_to_json(&stats);
        let _ = tx.send(
            Response::Result {
                job: id,
                cached: true,
                sum: stats_sum(&json),
                stats: json,
            }
            .to_line(),
        );
    }
}
