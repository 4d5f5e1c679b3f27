//! The wire protocol: newline-delimited JSON over TCP.
//!
//! Every request and every response is exactly one JSON object on one
//! line, tagged by a `"type"` field. Serialization reuses
//! [`ccp_sim::json::Json`], whose object keys are sorted — so the wire
//! form of any message is canonical and diffable, and a protocol trace
//! can be replayed byte-for-byte.
//!
//! DESIGN.md §8 tables every request and response with its fields and
//! meaning; `protocol_table_matches_the_codec` keeps those tables and
//! this codec naming the same `type`s.
//!
//! Responses to one request are totally ordered on the connection
//! (`accepted` before any `progress` before the terminal `result` /
//! `job_error`), but responses for *different* jobs interleave freely —
//! clients demultiplex on `job`.

use ccp_errors::{SimError, SimResult};
use ccp_sim::json::{counters, counters_from_json, counters_to_json, Json};
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
        /// FNV-1a hash of the canonical `stats` text, as fixed-width hex
        /// (a string, because `Json::Num` is an f64). Clients verify it and
        /// reject a mismatch as a protocol error (a payload mangled in
        /// transit).
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

counters! {
    /// Server counters, as reported by the `stats` request. Declared through
    /// [`counters!`], so the counter visitor encodes and decodes the
    /// `stats` response.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct StatsSnapshot {
        /// Jobs accepted (including cache hits and joined flights).
        pub submitted: u64,
        /// Jobs that reached a terminal `result`.
        pub completed: u64,
        /// Jobs that reached a terminal `job_error`.
        pub failed: u64,
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
        /// 1 while the server is draining, else 0.
        pub draining: u64,
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

fn get_bool(obj: &Json, key: &str) -> SimResult<bool> {
    obj.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| SimError::protocol(format!("missing or non-boolean field {key:?}")))
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
            Response::Stats(s) => {
                let mut json = counters_to_json(s);
                if let Json::Obj(map) = &mut json {
                    map.insert("type".into(), Json::Str("stats".into()));
                }
                json
            }
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
                cached: get_bool(&v, "cached")?,
                stats: v
                    .get("stats")
                    .cloned()
                    .ok_or_else(|| SimError::protocol("result without \"stats\""))?,
                sum: get_str(&v, "sum")?,
            }),
            "job_error" => Ok(Response::JobError {
                job: get_u64(&v, "job")?,
                class: get_str(&v, "class")?,
                error: get_str(&v, "error")?,
            }),
            "stats" => counters_from_json(&v)
                .map(Response::Stats)
                .map_err(|e| SimError::protocol(format!("bad stats response: {e}"))),
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
    use std::collections::BTreeSet;

    /// A sample of the request variant after `r`, in declaration order.
    /// The match is exhaustive, so a new variant does not compile until
    /// it has a place in this chain.
    fn next_request(r: &Request) -> Option<Request> {
        match r {
            Request::Submit { .. } => Some(Request::Stats),
            Request::Stats => Some(Request::Ping),
            Request::Ping => Some(Request::Shutdown),
            Request::Shutdown => None,
        }
    }

    /// One sample of every request variant.
    fn every_request() -> Vec<Request> {
        let first = Request::Submit {
            spec: JobSpec::new("health", "CPP"),
            deadline_ms: 0,
        };
        std::iter::successors(Some(first), next_request).collect()
    }

    /// [`next_request`] for responses.
    fn next_response(r: &Response) -> Option<Response> {
        match r {
            Response::Accepted { .. } => Some(Response::Progress {
                job: 1,
                done: 512,
                total: 2_048,
            }),
            Response::Progress { .. } => Some(Response::Result {
                job: 1,
                cached: true,
                stats: Json::obj([("cycles", Json::Num(123.0))]),
                sum: "00000000075bcd15".into(),
            }),
            Response::Result { .. } => Some(Response::JobError {
                job: 2,
                class: "panic".into(),
                error: "poisoned".into(),
            }),
            Response::JobError { .. } => Some(Response::Stats(StatsSnapshot {
                submitted: 10,
                hits: 3,
                in_flight: 2,
                cache_bytes: 4_096,
                disk_hits: 5,
                disk_writes: 6,
                draining: 1,
                accept_errors: 1,
                shed: 2,
                deadline_expired: 3,
                disk_quarantined: 4,
                ..Default::default()
            })),
            Response::Stats(_) => Some(Response::Pong),
            Response::Pong => Some(Response::ShuttingDown {
                detail: "draining 2 jobs".into(),
            }),
            Response::ShuttingDown { .. } => Some(Response::Overloaded { depth: 4, limit: 4 }),
            Response::Overloaded { .. } => Some(Response::ProtocolError {
                error: "bad line".into(),
            }),
            Response::ProtocolError { .. } => None,
        }
    }

    /// One sample of every response variant.
    fn every_response() -> Vec<Response> {
        let first = Response::Accepted {
            job: 1,
            key: "00ff".into(),
        };
        std::iter::successors(Some(first), next_response).collect()
    }

    fn wire_type(v: &Json) -> String {
        v.get("type")
            .and_then(Json::as_str)
            .expect("every message carries a type")
            .to_string()
    }

    #[test]
    fn requests_roundtrip() {
        let mut spec = JobSpec::new("health", "CPP");
        spec.budget = 5_000;
        spec.seed = 42;
        spec.halved = true;
        spec.fault = Some("pa".into());
        let submits = [
            Request::Submit {
                spec: spec.clone(),
                deadline_ms: 0,
            },
            Request::Submit {
                spec,
                deadline_ms: 2_500,
            },
        ];
        for req in submits.into_iter().chain(every_request()) {
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
        for resp in every_response() {
            let line = resp.to_line();
            assert!(!line.contains('\n'), "one line per message: {line}");
            assert_eq!(Response::parse(&line).expect("parse"), resp, "{line}");
        }
        // Every counter of a `stats` response is required.
        let stats = Response::Stats(StatsSnapshot::default()).to_json();
        for key in stats.as_obj().expect("object").keys() {
            if key == "type" {
                continue;
            }
            let mut partial = stats.clone();
            if let Json::Obj(map) = &mut partial {
                map.remove(key);
            }
            let e = Response::parse(&partial.to_string()).unwrap_err();
            assert_eq!(e.class(), "protocol", "stats without {key:?}: {e}");
        }
    }

    #[test]
    fn a_result_without_sum_is_a_protocol_error() {
        // The integrity sum is required: a result that lacks it cannot
        // be checked, so it is refused rather than trusted.
        let line = r#"{"type":"result","job":3,"cached":false,"stats":{"cycles":9}}"#;
        let e = Response::parse(line).unwrap_err();
        assert_eq!(e.class(), "protocol", "{e}");
        assert!(e.to_string().contains("\"sum\""), "{e}");
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
            "{\"type\":\"cancel\",\"job\":1}",
        ] {
            let e = Request::parse(bad).unwrap_err();
            assert_eq!(e.class(), "protocol", "{bad:?} -> {e}");
        }
    }

    /// The backticked first cell of every body row of the table under
    /// `heading` in `doc` (its header and rule rows skipped).
    fn table_types(doc: &str, heading: &str) -> BTreeSet<String> {
        let section = doc
            .split_once(heading)
            .unwrap_or_else(|| panic!("DESIGN.md has no {heading:?}"))
            .1;
        section
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .skip(2)
            .filter_map(|row| {
                let cell = row.split('|').nth(1)?.trim();
                let name = cell.strip_prefix('`')?.strip_suffix('`')?;
                Some(name.to_string())
            })
            .collect()
    }

    #[test]
    fn protocol_table_matches_the_codec() {
        let design =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
                .expect("DESIGN.md reads");
        let section = design
            .split_once("## 8. Serving protocol")
            .expect("DESIGN.md has §8")
            .1;
        let requests: BTreeSet<String> = every_request()
            .iter()
            .map(|r| wire_type(&r.to_json()))
            .collect();
        let responses: BTreeSet<String> = every_response()
            .iter()
            .map(|r| wire_type(&r.to_json()))
            .collect();
        assert_eq!(
            requests.len(),
            every_request().len(),
            "a request type repeats"
        );
        assert_eq!(
            responses.len(),
            every_response().len(),
            "a response type repeats"
        );
        assert_eq!(
            table_types(section, "### Requests"),
            requests,
            "DESIGN.md §8's Requests table and Request's codec disagree"
        );
        assert_eq!(
            table_types(section, "### Responses"),
            responses,
            "DESIGN.md §8's Responses table and Response's codec disagree"
        );
    }
}
