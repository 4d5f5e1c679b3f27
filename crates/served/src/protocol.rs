//! The wire protocol: newline-delimited JSON over TCP.
//!
//! Every request and every response is exactly one JSON object on one
//! line, tagged by a `"type"` field. Serialization reuses
//! [`ccp_sim::json::Json`], whose object keys are sorted — so the wire
//! form of any message is canonical and diffable, and a protocol trace
//! can be replayed byte-for-byte.
//!
//! | direction | `type` | payload |
//! |-----------|--------|---------|
//! | → | `submit` | a [`JobSpec`]: `workload`, `design`, optional `budget`/`seed`/`halved`/`fault`; optional `deadline_ms` |
//! | → | `cancel` | `job` id |
//! | → | `stats`, `ping`, `shutdown` | — |
//! | ← | `accepted` | `job` id, cache `key` (hex) |
//! | ← | `progress` | `job`, `done`, `total` instructions |
//! | ← | `result` | `job`, `cached` flag, full `stats` object, `sum` integrity hex |
//! | ← | `job_error` | `job`, error `class` + `error` message |
//! | ← | `overloaded` | `depth`/`limit` of the full queue (typed shed; retry with backoff) |
//! | ← | `stats` | the [`StatsSnapshot`] counters |
//! | ← | `pong`, `shutting_down`, `error` | — / `detail` / `class`+`error` |
//!
//! A `submit` may carry `deadline_ms` (0 or absent = none): the server
//! cancels the job once the deadline passes, and a deadline-expired job
//! is *never* completed into the result cache or disk store. The `sum`
//! field on `result` is the FNV-1a hash of the canonical `stats` JSON
//! text as fixed-width hex, carried as a string because `Json::Num` is an
//! f64 — clients use it to reject payloads mangled in transit.
//!
//! Responses to one request are totally ordered on the connection
//! (`accepted` before any `progress` before the terminal `result` /
//! `job_error`), but responses for *different* jobs interleave freely —
//! clients demultiplex on `job`.

use ccp_errors::{SimError, SimResult};
use ccp_sim::json::Json;
use ccp_sim::JobSpec;

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit one simulation job.
    Submit {
        /// The job to run.
        spec: JobSpec,
        /// Server-side deadline in milliseconds (0 = none). The deadline
        /// is a delivery property, not part of the job's identity — it is
        /// deliberately *not* a [`JobSpec`] field, so it never feeds the
        /// cache key.
        deadline_ms: u64,
    },
    /// Request cooperative cancellation of a previously accepted job.
    Cancel {
        /// The job id from the `accepted` response.
        job: u64,
    },
    /// Ask for the server's counter snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the server to drain and exit (same path as SIGTERM).
    Shutdown,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job was parsed and assigned an id; a terminal `result` or
    /// `job_error` for this id will follow.
    Accepted {
        /// Server-assigned job id, unique per server lifetime.
        job: u64,
        /// The job's content address (cache key), as fixed-width hex.
        key: String,
    },
    /// Streamed progress: `done` of `total` instructions simulated.
    Progress {
        /// Job id.
        job: u64,
        /// Instructions streamed so far.
        done: u64,
        /// Total instructions expected.
        total: u64,
    },
    /// Terminal success: the full statistics object for the job.
    Result {
        /// Job id.
        job: u64,
        /// Whether the result came from the cache (hit or joined flight).
        cached: bool,
        /// The `RunStats` rendered as JSON (same shape as `ccp-sim --json`).
        stats: Json,
        /// FNV-1a hash of the canonical `stats` text, as fixed-width hex.
        /// Empty when an older server omitted it; clients
        /// verify it when present and reject mismatches as protocol
        /// errors (a corrupted-in-transit payload).
        sum: String,
    },
    /// Terminal failure, with the [`SimError`] class preserved so the
    /// client can rebuild a typed error via [`SimError::from_wire`].
    JobError {
        /// Job id.
        job: u64,
        /// `SimError::class()` tag (`panic`, `watchdog`, `canceled`, …).
        class: String,
        /// Human-readable message.
        error: String,
    },
    /// Counter snapshot.
    Stats(StatsSnapshot),
    /// Reply to `ping`.
    Pong,
    /// The server is draining: sent as the reply to `shutdown`, and to any
    /// `submit` that arrives during the drain.
    ShuttingDown {
        /// Why / what the server is doing.
        detail: String,
    },
    /// Typed shed: the bounded queue is full and the submit was rejected
    /// before any job id was assigned. The server is healthy — the client
    /// should back off (with jitter) and resubmit.
    Overloaded {
        /// Jobs queued when the submit was shed.
        depth: u64,
        /// The configured queue bound.
        limit: u64,
    },
    /// The request line itself was malformed.
    ProtocolError {
        /// What was wrong with it.
        error: String,
    },
}

/// Server counters, as reported by the `stats` request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Jobs accepted (including cache hits and joined flights).
    pub submitted: u64,
    /// Jobs that reached a terminal `result`.
    pub completed: u64,
    /// Jobs that reached a terminal `job_error` (other than cancellation).
    pub failed: u64,
    /// Jobs that ended canceled.
    pub canceled: u64,
    /// Simulations actually executed by workers (misses that ran).
    pub sims_run: u64,
    /// Result-cache hits served without touching the queue.
    pub hits: u64,
    /// Submissions that joined an identical in-flight job (single-flight).
    pub joined: u64,
    /// Cache misses (each elects a leader that runs the simulation).
    pub misses: u64,
    /// Cached results evicted by the LRU policy.
    pub evictions: u64,
    /// Ready entries currently cached.
    pub entries: u64,
    /// Jobs queued and not yet picked up by a worker.
    pub queue_depth: u64,
    /// Jobs currently being executed by workers.
    pub in_flight: u64,
    /// Estimated bytes resident in the RAM result cache.
    pub cache_bytes: u64,
    /// Results served (verified) from the disk store tier.
    pub disk_hits: u64,
    /// Disk-tier lookups that found no usable entry.
    pub disk_misses: u64,
    /// Entries written to the disk store tier.
    pub disk_writes: u64,
    /// Worker threads in the pool.
    pub workers: u64,
    /// Whether the server is draining.
    pub draining: bool,
    /// Accept-loop errors other than `WouldBlock` (satellite of the
    /// listener hardening: these used to be silently swallowed).
    pub accept_errors: u64,
    /// Submits shed with a typed `overloaded` response (queue full).
    pub shed: u64,
    /// Jobs cancelled (or results discarded) because their deadline
    /// passed; none of these ever populate the cache or store.
    pub deadline_expired: u64,
    /// Corrupt `.ccpz` entries quarantined by the disk tier.
    pub disk_quarantined: u64,
}

fn get_str(obj: &Json, key: &str) -> SimResult<String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| SimError::protocol(format!("missing or non-string field {key:?}")))
}

fn get_u64(obj: &Json, key: &str) -> SimResult<u64> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| SimError::protocol(format!("missing or non-integer field {key:?}")))
}

fn opt_u64(obj: &Json, key: &str, default: u64) -> SimResult<u64> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| {
            SimError::protocol(format!("field {key:?} must be a non-negative integer"))
        }),
    }
}

fn opt_str(obj: &Json, key: &str) -> SimResult<String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(String::new()),
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| SimError::protocol(format!("field {key:?} must be a string"))),
    }
}

fn opt_bool(obj: &Json, key: &str, default: bool) -> SimResult<bool> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| SimError::protocol(format!("field {key:?} must be a boolean"))),
    }
}

fn spec_to_json(spec: &JobSpec) -> Vec<(&'static str, Json)> {
    vec![
        ("workload", Json::Str(spec.workload.clone())),
        ("design", Json::Str(spec.design.clone())),
        ("scheme", Json::Str(spec.scheme.clone())),
        ("budget", Json::Num(spec.budget as f64)),
        ("seed", Json::Num(spec.seed as f64)),
        ("halved", Json::Bool(spec.halved)),
        (
            "fault",
            spec.fault
                .as_ref()
                .map(|f| Json::Str(f.clone()))
                .unwrap_or(Json::Null),
        ),
    ]
}

fn spec_from_json(v: &Json) -> SimResult<JobSpec> {
    let defaults = JobSpec::new("", "");
    let fault = match v.get("fault") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(_) => {
            return Err(SimError::protocol(
                "field \"fault\" must be a string or null",
            ))
        }
    };
    // Pre-scheme clients omit the field; they mean the paper's scheme.
    let scheme = match opt_str(v, "scheme")? {
        s if s.is_empty() => defaults.scheme.clone(),
        s => s,
    };
    Ok(JobSpec {
        workload: get_str(v, "workload")?,
        design: get_str(v, "design")?,
        scheme,
        budget: opt_u64(v, "budget", defaults.budget as u64)? as usize,
        seed: opt_u64(v, "seed", defaults.seed)?,
        halved: opt_bool(v, "halved", defaults.halved)?,
        fault,
    })
}

impl Request {
    /// Renders the request as its canonical JSON value.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Submit { spec, deadline_ms } => {
                let mut pairs = vec![
                    ("type", Json::Str("submit".into())),
                    ("deadline_ms", Json::Num(*deadline_ms as f64)),
                ];
                pairs.extend(spec_to_json(spec));
                Json::obj(pairs)
            }
            Request::Cancel { job } => Json::obj([
                ("type", Json::Str("cancel".into())),
                ("job", Json::Num(*job as f64)),
            ]),
            Request::Stats => Json::obj([("type", Json::Str("stats".into()))]),
            Request::Ping => Json::obj([("type", Json::Str("ping".into()))]),
            Request::Shutdown => Json::obj([("type", Json::Str("shutdown".into()))]),
        }
    }

    /// One wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_string()
    }

    /// Parses one wire line into a request.
    pub fn parse(line: &str) -> SimResult<Request> {
        let v =
            Json::parse(line).map_err(|e| SimError::protocol(format!("bad request JSON: {e}")))?;
        let ty = get_str(&v, "type")?;
        match ty.as_str() {
            "submit" => Ok(Request::Submit {
                spec: spec_from_json(&v)?,
                deadline_ms: opt_u64(&v, "deadline_ms", 0)?,
            }),
            "cancel" => Ok(Request::Cancel {
                job: get_u64(&v, "job")?,
            }),
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(SimError::protocol(format!(
                "unknown request type {other:?}"
            ))),
        }
    }
}

impl Response {
    /// Renders the response as its canonical JSON value.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Accepted { job, key } => Json::obj([
                ("type", Json::Str("accepted".into())),
                ("job", Json::Num(*job as f64)),
                ("key", Json::Str(key.clone())),
            ]),
            Response::Progress { job, done, total } => Json::obj([
                ("type", Json::Str("progress".into())),
                ("job", Json::Num(*job as f64)),
                ("done", Json::Num(*done as f64)),
                ("total", Json::Num(*total as f64)),
            ]),
            Response::Result {
                job,
                cached,
                stats,
                sum,
            } => Json::obj([
                ("type", Json::Str("result".into())),
                ("job", Json::Num(*job as f64)),
                ("cached", Json::Bool(*cached)),
                ("stats", stats.clone()),
                ("sum", Json::Str(sum.clone())),
            ]),
            Response::JobError { job, class, error } => Json::obj([
                ("type", Json::Str("job_error".into())),
                ("job", Json::Num(*job as f64)),
                ("class", Json::Str(class.clone())),
                ("error", Json::Str(error.clone())),
            ]),
            Response::Stats(s) => Json::obj([
                ("type", Json::Str("stats".into())),
                ("submitted", Json::Num(s.submitted as f64)),
                ("completed", Json::Num(s.completed as f64)),
                ("failed", Json::Num(s.failed as f64)),
                ("canceled", Json::Num(s.canceled as f64)),
                ("sims_run", Json::Num(s.sims_run as f64)),
                ("hits", Json::Num(s.hits as f64)),
                ("joined", Json::Num(s.joined as f64)),
                ("misses", Json::Num(s.misses as f64)),
                ("evictions", Json::Num(s.evictions as f64)),
                ("entries", Json::Num(s.entries as f64)),
                ("queue_depth", Json::Num(s.queue_depth as f64)),
                ("in_flight", Json::Num(s.in_flight as f64)),
                ("cache_bytes", Json::Num(s.cache_bytes as f64)),
                ("disk_hits", Json::Num(s.disk_hits as f64)),
                ("disk_misses", Json::Num(s.disk_misses as f64)),
                ("disk_writes", Json::Num(s.disk_writes as f64)),
                ("workers", Json::Num(s.workers as f64)),
                ("draining", Json::Bool(s.draining)),
                ("accept_errors", Json::Num(s.accept_errors as f64)),
                ("shed", Json::Num(s.shed as f64)),
                ("deadline_expired", Json::Num(s.deadline_expired as f64)),
                ("disk_quarantined", Json::Num(s.disk_quarantined as f64)),
            ]),
            Response::Pong => Json::obj([("type", Json::Str("pong".into()))]),
            Response::ShuttingDown { detail } => Json::obj([
                ("type", Json::Str("shutting_down".into())),
                ("detail", Json::Str(detail.clone())),
            ]),
            Response::Overloaded { depth, limit } => Json::obj([
                ("type", Json::Str("overloaded".into())),
                ("depth", Json::Num(*depth as f64)),
                ("limit", Json::Num(*limit as f64)),
            ]),
            Response::ProtocolError { error } => Json::obj([
                ("type", Json::Str("error".into())),
                ("class", Json::Str("protocol".into())),
                ("error", Json::Str(error.clone())),
            ]),
        }
    }

    /// One wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_string()
    }

    /// Parses one wire line into a response.
    pub fn parse(line: &str) -> SimResult<Response> {
        let v =
            Json::parse(line).map_err(|e| SimError::protocol(format!("bad response JSON: {e}")))?;
        let ty = get_str(&v, "type")?;
        match ty.as_str() {
            "accepted" => Ok(Response::Accepted {
                job: get_u64(&v, "job")?,
                key: get_str(&v, "key")?,
            }),
            "progress" => Ok(Response::Progress {
                job: get_u64(&v, "job")?,
                done: get_u64(&v, "done")?,
                total: get_u64(&v, "total")?,
            }),
            "result" => Ok(Response::Result {
                job: get_u64(&v, "job")?,
                cached: opt_bool(&v, "cached", false)?,
                stats: v
                    .get("stats")
                    .cloned()
                    .ok_or_else(|| SimError::protocol("result without \"stats\""))?,
                // Absent from older servers: empty means "unverifiable".
                sum: opt_str(&v, "sum")?,
            }),
            "job_error" => Ok(Response::JobError {
                job: get_u64(&v, "job")?,
                class: get_str(&v, "class")?,
                error: get_str(&v, "error")?,
            }),
            "stats" => Ok(Response::Stats(StatsSnapshot {
                submitted: get_u64(&v, "submitted")?,
                completed: get_u64(&v, "completed")?,
                failed: get_u64(&v, "failed")?,
                canceled: get_u64(&v, "canceled")?,
                sims_run: get_u64(&v, "sims_run")?,
                hits: get_u64(&v, "hits")?,
                joined: get_u64(&v, "joined")?,
                misses: get_u64(&v, "misses")?,
                evictions: get_u64(&v, "evictions")?,
                entries: get_u64(&v, "entries")?,
                queue_depth: get_u64(&v, "queue_depth")?,
                // Added after the first protocol cut: parsed tolerantly so
                // a new client still reads an old server's snapshot.
                in_flight: opt_u64(&v, "in_flight", 0)?,
                cache_bytes: opt_u64(&v, "cache_bytes", 0)?,
                disk_hits: opt_u64(&v, "disk_hits", 0)?,
                disk_misses: opt_u64(&v, "disk_misses", 0)?,
                disk_writes: opt_u64(&v, "disk_writes", 0)?,
                workers: get_u64(&v, "workers")?,
                draining: opt_bool(&v, "draining", false)?,
                // Added with deadlines and sheds, same tolerance.
                accept_errors: opt_u64(&v, "accept_errors", 0)?,
                shed: opt_u64(&v, "shed", 0)?,
                deadline_expired: opt_u64(&v, "deadline_expired", 0)?,
                disk_quarantined: opt_u64(&v, "disk_quarantined", 0)?,
            })),
            "pong" => Ok(Response::Pong),
            "shutting_down" => Ok(Response::ShuttingDown {
                detail: get_str(&v, "detail")?,
            }),
            "overloaded" => Ok(Response::Overloaded {
                depth: get_u64(&v, "depth")?,
                limit: get_u64(&v, "limit")?,
            }),
            "error" => Ok(Response::ProtocolError {
                error: get_str(&v, "error")?,
            }),
            other => Err(SimError::protocol(format!(
                "unknown response type {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let mut spec = JobSpec::new("health", "CPP");
        spec.budget = 5_000;
        spec.seed = 42;
        spec.halved = true;
        spec.fault = Some("pa".into());
        for req in [
            Request::Submit {
                spec: spec.clone(),
                deadline_ms: 0,
            },
            Request::Submit {
                spec,
                deadline_ms: 2_500,
            },
            Request::Cancel { job: 9 },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ] {
            let line = req.to_line();
            assert!(!line.contains('\n'), "one line per message: {line}");
            assert_eq!(Request::parse(&line).expect("parse"), req, "{line}");
        }
    }

    #[test]
    fn submit_defaults_match_jobspec_defaults() {
        let req = Request::parse(r#"{"type":"submit","workload":"health","design":"CPP"}"#)
            .expect("parse");
        assert_eq!(
            req,
            Request::Submit {
                spec: JobSpec::new("health", "CPP"),
                deadline_ms: 0,
            }
        );
    }

    #[test]
    fn responses_roundtrip() {
        let stats = Json::obj([("cycles", Json::Num(123.0))]);
        for resp in [
            Response::Accepted {
                job: 1,
                key: "00ff".into(),
            },
            Response::Progress {
                job: 1,
                done: 512,
                total: 2_048,
            },
            Response::Result {
                job: 1,
                cached: true,
                stats,
                sum: "00000000075bcd15".into(),
            },
            Response::JobError {
                job: 2,
                class: "panic".into(),
                error: "poisoned".into(),
            },
            Response::Stats(StatsSnapshot {
                submitted: 10,
                hits: 3,
                in_flight: 2,
                cache_bytes: 4_096,
                disk_hits: 5,
                disk_writes: 6,
                draining: true,
                accept_errors: 1,
                shed: 2,
                deadline_expired: 3,
                disk_quarantined: 4,
                ..Default::default()
            }),
            Response::Pong,
            Response::ShuttingDown {
                detail: "draining 2 jobs".into(),
            },
            Response::Overloaded { depth: 4, limit: 4 },
            Response::ProtocolError {
                error: "bad line".into(),
            },
        ] {
            let line = resp.to_line();
            assert!(!line.contains('\n'), "one line per message: {line}");
            assert_eq!(Response::parse(&line).expect("parse"), resp, "{line}");
        }
    }

    #[test]
    fn old_stats_lines_parse_without_new_fields() {
        // An older server omits in_flight/cache_bytes/disk_*: the
        // snapshot must still parse, with those counters defaulting to 0.
        let line = r#"{"type":"stats","submitted":1,"completed":1,"failed":0,"canceled":0,"sims_run":1,"hits":0,"joined":0,"misses":1,"evictions":0,"entries":1,"queue_depth":0,"workers":4,"draining":false}"#;
        match Response::parse(line).expect("parse") {
            Response::Stats(s) => {
                assert_eq!(s.submitted, 1);
                assert_eq!(s.in_flight, 0);
                assert_eq!(s.cache_bytes, 0);
                assert_eq!(s.disk_hits, 0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn old_result_lines_parse_without_sum() {
        // An older server omits the integrity sum: the result still
        // parses, with an empty (unverifiable) sum.
        let line = r#"{"type":"result","job":3,"cached":false,"stats":{"cycles":9}}"#;
        match Response::parse(line).expect("parse") {
            Response::Result { job, sum, .. } => {
                assert_eq!(job, 3);
                assert!(sum.is_empty());
            }
            other => panic!("expected result, got {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_typed_protocol_errors() {
        for bad in [
            "",
            "not json",
            "{\"type\":\"warp\"}",
            "{\"no\":\"type\"}",
            "{\"type\":\"submit\",\"workload\":\"health\"}",
            "{\"type\":\"submit\",\"workload\":\"health\",\"design\":\"CPP\",\"budget\":-1}",
            "{\"type\":\"cancel\"}",
        ] {
            let e = Request::parse(bad).unwrap_err();
            assert_eq!(e.class(), "protocol", "{bad:?} -> {e}");
        }
    }
}
