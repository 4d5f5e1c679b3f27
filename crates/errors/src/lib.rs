#![warn(missing_docs)]
// No panic outside tests in any crate the served binaries link (DESIGN.md §9).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![cfg_attr(
    not(test),
    deny(clippy::unreachable, clippy::todo, clippy::unimplemented)
)]

//! Typed error taxonomy shared by every crate in the workspace.
//!
//! The simulator's failure surface splits into a small number of classes —
//! bad workload specifications, malformed traces, violated hierarchy
//! invariants, pipeline malfunctions, per-cell watchdog trips, and plain
//! I/O — and callers treat them differently (a sweep reports each failed
//! cell's class, a served client backs off on `overloaded`), so they are
//! modeled as one enum rather than stringly-typed `Result<_, String>`s. The crate is
//! dependency-free and sits below everything else in the workspace.

use std::fmt;

/// Shorthand for a result carrying a [`SimError`].
pub type SimResult<T> = Result<T, SimError>;

/// Every failure class the simulation stack can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A workload specification failed to parse or validate
    /// (`workgen:` specs, malformed fractions, bad address models).
    Spec {
        /// What was wrong with the spec.
        detail: String,
    },
    /// A name lookup failed (benchmark, design, workload, figure).
    Unknown {
        /// The namespace searched (`"benchmark"`, `"design"`, ...).
        kind: &'static str,
        /// The name that did not resolve.
        name: String,
    },
    /// A trace failed generation-time or load-time validation.
    Trace {
        /// The first inconsistency found.
        detail: String,
    },
    /// A cache-hierarchy structural invariant does not hold.
    Invariant {
        /// Where the violation was found (level, line, cell).
        context: String,
        /// The violated invariant.
        detail: String,
    },
    /// The timing pipeline malfunctioned (e.g. wedged without committing).
    Pipeline {
        /// The malfunction description.
        detail: String,
    },
    /// A caught panic from an isolated unit of work.
    Panic {
        /// The unit that panicked (e.g. a sweep cell).
        context: String,
        /// The panic payload, if it was a string.
        detail: String,
    },
    /// A per-cell watchdog stopped a run that overshot its budget.
    Watchdog {
        /// The unit that tripped the watchdog.
        context: String,
        /// The instruction limit that was exceeded.
        limit: u64,
    },
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying OS error.
        detail: String,
    },
    /// A persisted artifact (checkpoint, container) is malformed or does
    /// not match the run it is being used with.
    Corrupt {
        /// The artifact kind (`"checkpoint"`, `"trace container"`, ...).
        what: String,
        /// What is wrong with it.
        detail: String,
    },
    /// A peer sent something the wire protocol cannot accept (malformed
    /// JSON, missing fields, unknown request type).
    Protocol {
        /// What was wrong with the message.
        detail: String,
    },
    /// A job was canceled before it completed.
    Canceled {
        /// The unit that was canceled (e.g. a served job).
        context: String,
    },
    /// The server is draining and rejected new work.
    Shutdown {
        /// Why the work was rejected.
        detail: String,
    },
    /// The server shed the request because its queue is full. Unlike
    /// [`SimError::Shutdown`] the server is healthy — the caller should
    /// back off (with jitter) and retry, rather than treat the shed as a
    /// fault.
    Overloaded {
        /// The server's description of the pressure (queue depth, bound).
        detail: String,
    },
    /// An operation exceeded its deadline (a served job past its
    /// `deadline_ms`, a socket read that never answered).
    Timeout {
        /// The operation that timed out.
        context: String,
        /// The deadline that was exceeded.
        detail: String,
    },
}

impl SimError {
    /// A spec parse/validation error.
    pub fn spec(detail: impl Into<String>) -> Self {
        SimError::Spec {
            detail: detail.into(),
        }
    }

    /// A failed name lookup in namespace `kind`.
    pub fn unknown(kind: &'static str, name: impl Into<String>) -> Self {
        SimError::Unknown {
            kind,
            name: name.into(),
        }
    }

    /// A trace-consistency error.
    pub fn trace(detail: impl Into<String>) -> Self {
        SimError::Trace {
            detail: detail.into(),
        }
    }

    /// An invariant violation found at `context`.
    pub fn invariant(context: impl Into<String>, detail: impl Into<String>) -> Self {
        SimError::Invariant {
            context: context.into(),
            detail: detail.into(),
        }
    }

    /// A pipeline malfunction.
    pub fn pipeline(detail: impl Into<String>) -> Self {
        SimError::Pipeline {
            detail: detail.into(),
        }
    }

    /// A watchdog trip in `context` after `limit` streamed instructions.
    pub fn watchdog(context: impl Into<String>, limit: u64) -> Self {
        SimError::Watchdog {
            context: context.into(),
            limit,
        }
    }

    /// An I/O failure on `path`.
    pub fn io(path: impl Into<String>, err: &std::io::Error) -> Self {
        SimError::Io {
            path: path.into(),
            detail: err.to_string(),
        }
    }

    /// A corrupt or mismatched persisted artifact.
    pub fn corrupt(what: impl Into<String>, detail: impl Into<String>) -> Self {
        SimError::Corrupt {
            what: what.into(),
            detail: detail.into(),
        }
    }

    /// A wire-protocol violation by a peer.
    pub fn protocol(detail: impl Into<String>) -> Self {
        SimError::Protocol {
            detail: detail.into(),
        }
    }

    /// A cancellation of the unit of work at `context`.
    pub fn canceled(context: impl Into<String>) -> Self {
        SimError::Canceled {
            context: context.into(),
        }
    }

    /// A rejection because the server is shutting down.
    pub fn shutdown(detail: impl Into<String>) -> Self {
        SimError::Shutdown {
            detail: detail.into(),
        }
    }

    /// A shed because the server's bounded queue is full.
    pub fn overloaded(detail: impl Into<String>) -> Self {
        SimError::Overloaded {
            detail: detail.into(),
        }
    }

    /// A deadline exceeded by the operation at `context`.
    pub fn timeout(context: impl Into<String>, detail: impl Into<String>) -> Self {
        SimError::Timeout {
            context: context.into(),
            detail: detail.into(),
        }
    }

    /// Classifies a caught panic payload (from `std::panic::catch_unwind`)
    /// raised inside `context`. Panics whose message identifies a pipeline
    /// wedge are reported as [`SimError::Pipeline`]; everything else as
    /// [`SimError::Panic`].
    pub fn from_panic(context: impl Into<String>, payload: &(dyn std::any::Any + Send)) -> Self {
        let msg = payload
            .downcast_ref::<&'static str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        if msg.contains("pipeline wedged") {
            SimError::pipeline(msg)
        } else {
            SimError::Panic {
                context: context.into(),
                detail: msg,
            }
        }
    }

    /// Short class tag used in per-cell status reports (`failed{panic}`).
    pub fn class(&self) -> &'static str {
        match self {
            SimError::Spec { .. } => "spec",
            SimError::Unknown { .. } => "unknown-name",
            SimError::Trace { .. } => "trace",
            SimError::Invariant { .. } => "invariant",
            SimError::Pipeline { .. } => "pipeline",
            SimError::Panic { .. } => "panic",
            SimError::Watchdog { .. } => "watchdog",
            SimError::Io { .. } => "io",
            SimError::Corrupt { .. } => "corrupt",
            SimError::Protocol { .. } => "protocol",
            SimError::Canceled { .. } => "canceled",
            SimError::Shutdown { .. } => "shutdown",
            SimError::Overloaded { .. } => "overloaded",
            SimError::Timeout { .. } => "timeout",
        }
    }

    /// Reconstructs an error from a `(class, message)` pair that traveled
    /// over the wire. The original variant fields are gone — the message is
    /// all a remote peer ever sees — so every class maps onto the variant
    /// whose `detail` carries the full rendered message. Unknown classes
    /// (from a newer server) degrade to [`SimError::Protocol`].
    pub fn from_wire(class: &str, message: impl Into<String>) -> Self {
        let message = message.into();
        match class {
            "spec" => SimError::spec(message),
            "trace" => SimError::trace(message),
            "invariant" => SimError::invariant("", message),
            "pipeline" => SimError::pipeline(message),
            "panic" => SimError::Panic {
                context: "remote".to_string(),
                detail: message,
            },
            "watchdog" => SimError::Watchdog {
                context: message,
                limit: 0,
            },
            "unknown-name" => SimError::unknown("name", message),
            "io" => SimError::Io {
                path: "remote".to_string(),
                detail: message,
            },
            "corrupt" => SimError::corrupt("artifact", message),
            "canceled" => SimError::canceled(message),
            "shutdown" => SimError::shutdown(message),
            "overloaded" => SimError::overloaded(message),
            "timeout" => SimError::timeout("remote", message),
            _ => SimError::protocol(message),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Spec { detail } => write!(f, "bad workload spec: {detail}"),
            SimError::Unknown { kind, name } => write!(f, "unknown {kind} {name:?}"),
            SimError::Trace { detail } => write!(f, "invalid trace: {detail}"),
            SimError::Invariant { context, detail } => {
                if context.is_empty() {
                    write!(f, "invariant violated: {detail}")
                } else {
                    write!(f, "invariant violated [{context}]: {detail}")
                }
            }
            SimError::Pipeline { detail } => write!(f, "pipeline failure: {detail}"),
            SimError::Panic { context, detail } => write!(f, "panic in {context}: {detail}"),
            SimError::Watchdog { context, limit } => write!(
                f,
                "watchdog tripped in {context}: exceeded {limit} streamed instructions"
            ),
            SimError::Io { path, detail } => write!(f, "{path}: {detail}"),
            SimError::Corrupt { what, detail } => write!(f, "corrupt {what}: {detail}"),
            SimError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            SimError::Canceled { context } => write!(f, "canceled: {context}"),
            SimError::Shutdown { detail } => write!(f, "server shutting down: {detail}"),
            SimError::Overloaded { detail } => write!(f, "server overloaded: {detail}"),
            SimError::Timeout { context, detail } => {
                write!(f, "timeout in {context}: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(SimError, &str)> = vec![
            (SimError::spec("small out of range"), "bad workload spec"),
            (
                SimError::unknown("benchmark", "nonesuch"),
                "unknown benchmark",
            ),
            (SimError::trace("forward dependence"), "invalid trace"),
            (SimError::invariant("L1", "VCP ⊄ PA"), "[L1]"),
            (SimError::pipeline("wedged"), "pipeline failure"),
            (SimError::watchdog("health/CPP", 100), "watchdog tripped"),
            (
                SimError::corrupt("checkpoint", "seed mismatch"),
                "corrupt checkpoint",
            ),
            (SimError::protocol("missing field"), "protocol violation"),
            (SimError::canceled("job 7"), "canceled"),
            (SimError::shutdown("draining"), "shutting down"),
            (
                SimError::overloaded("queue full (4/4)"),
                "server overloaded",
            ),
            (
                SimError::timeout("submit_wait", "no response in 5000ms"),
                "timeout in submit_wait",
            ),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn from_panic_classifies_wedges_as_pipeline() {
        let wedge: Box<dyn std::any::Any + Send> =
            Box::new("pipeline wedged at cycle 12345".to_string());
        assert!(matches!(
            SimError::from_panic("cell", wedge.as_ref()),
            SimError::Pipeline { .. }
        ));
        let plain: Box<dyn std::any::Any + Send> = Box::new("index out of bounds");
        let e = SimError::from_panic("health/CPP", plain.as_ref());
        assert!(matches!(e, SimError::Panic { .. }));
        assert!(e.to_string().contains("health/CPP"));
        let opaque: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert!(SimError::from_panic("c", opaque.as_ref())
            .to_string()
            .contains("non-string"));
    }

    #[test]
    fn class_tags_are_stable() {
        assert_eq!(SimError::spec("x").class(), "spec");
        assert_eq!(SimError::watchdog("c", 1).class(), "watchdog");
        assert_eq!(SimError::corrupt("checkpoint", "x").class(), "corrupt");
        assert_eq!(SimError::protocol("x").class(), "protocol");
        assert_eq!(SimError::canceled("x").class(), "canceled");
        assert_eq!(SimError::shutdown("x").class(), "shutdown");
        assert_eq!(SimError::overloaded("x").class(), "overloaded");
        assert_eq!(SimError::timeout("c", "x").class(), "timeout");
    }

    #[test]
    fn wire_roundtrip_preserves_class() {
        let cases = vec![
            SimError::spec("bad small"),
            SimError::invariant("L1", "VCP ⊄ PA"),
            SimError::pipeline("wedged"),
            SimError::canceled("job 3"),
            SimError::shutdown("draining"),
            SimError::overloaded("queue full (4/4)"),
            SimError::protocol("truncated line"),
            SimError::timeout("submit_wait", "deadline exceeded"),
        ];
        for e in cases {
            let back = SimError::from_wire(e.class(), e.to_string());
            assert_eq!(back.class(), e.class(), "{e}");
        }
        // Unknown classes degrade to protocol, never panic.
        assert_eq!(
            SimError::from_wire("from-the-future", "x").class(),
            "protocol"
        );
        assert_eq!(SimError::from_wire("panic", "boom").class(), "panic");
        assert_eq!(SimError::from_wire("watchdog", "cell").class(), "watchdog");
    }

    /// `SimError::overloaded` has its own class so callers can treat
    /// backpressure differently from faults: `Client::submit_wait_shed_retry`
    /// keys its backoff on this class.
    #[test]
    fn overloaded_class_is_distinct_from_every_fault_class() {
        let e = SimError::overloaded("queue full (3/2)");
        assert_eq!(e.class(), "overloaded");
        for fault in [
            SimError::io("/tmp/x", &std::io::Error::other("disk")),
            SimError::timeout("submit", "deadline"),
            SimError::pipeline("x"),
            SimError::watchdog("c", 1),
            SimError::protocol("x"),
            SimError::canceled("x"),
            SimError::shutdown("x"),
        ] {
            assert_ne!(fault.class(), e.class(), "{fault}");
        }
    }
}
