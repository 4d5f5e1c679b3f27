//! Interprocedural passes: whole-program checks that run on the
//! [`Workspace`] (symbol table + call graph) rather than on one file.
//!
//! Passes complement the per-file rules in [`crate::rules`]: a rule sees
//! tokens, a pass sees reachability. Every pass finding embeds a witness
//! call path (`entry → … → sink`) so the report explains *why* a line is
//! on a guarded path, not just that it pattern-matches.

mod determinism;
mod lock_graph;
mod service_panic;

pub use determinism::DeterministicCoreTransitive;
pub use lock_graph::{lock_edges, LockGraphAcyclic};
pub use service_panic::NoPanicInServicePath;

use crate::callgraph::Workspace;
use crate::engine::{Finding, Severity};

/// A whole-program pass: like [`crate::engine::Rule`], but checked
/// against the linked workspace instead of a single file.
pub trait Pass {
    /// Kebab-case pass name (what `allow(…)` refers to).
    fn name(&self) -> &'static str;
    /// Default severity of this pass's findings.
    fn severity(&self) -> Severity;
    /// One-line description for `--list-rules` and documentation.
    fn describe(&self) -> &'static str;
    /// Workspace path prefixes the pass anchors on (entry points, lock
    /// scope). Like [`crate::engine::Rule::scope`], each must exist.
    fn scope(&self) -> &'static [&'static str] {
        &[]
    }
    /// Checks the workspace and returns raw findings (suppressions are
    /// applied by the engine, keyed on each finding's file and line).
    fn check(&self, ws: &Workspace) -> Vec<Finding>;
}

/// All shipped passes, in documentation order.
pub fn all_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(NoPanicInServicePath),
        Box::new(DeterministicCoreTransitive),
        Box::new(LockGraphAcyclic),
    ]
}
