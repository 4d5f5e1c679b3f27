#![warn(missing_docs)]

//! `ccp-lint` — a workspace-specific static-analysis pass enforcing the
//! simulator's correctness invariants.
//!
//! Earlier PRs established conventions the compiler cannot check: typed
//! [`SimError`]s instead of `Result<_, String>` (PR 2), atomic
//! temp-then-rename for every JSON artifact (PR 2), a single
//! cache/cancellation mutex with one sanctioned nesting order (PR 3),
//! `catch_unwind`-isolated job paths that panics must not cross,
//! deterministic sim cores with no wall-clock reads, and bounded socket
//! reads in the serving stack. This crate scans
//! the workspace with its own minimal Rust lexer ([`lexer`]) and a small
//! rule engine ([`engine`]) carrying per-file rules ([`rules`]) that pin
//! those conventions down, the way a training/inference stack accretes
//! sanitizer + custom-lint wiring as it grows.
//!
//! This PR makes the analysis *whole-program*: a total item parser
//! ([`parser`]) over the lexer, a workspace symbol table ([`symbols`]),
//! a resolved call graph with reachability witnesses ([`callgraph`]),
//! and three interprocedural passes ([`passes`]) — panic-freedom of the
//! serving paths, transitive determinism of the core crates' public
//! API, and acyclicity of the inferred global lock graph.
//!
//! The crate is dependency-free (it must be able to lint every other
//! crate without depending on any of them) and offline, consistent with
//! the `crates/compat` approach. See `DESIGN.md` §9 for the rule
//! catalogue, §12 for the whole-program pipeline, and the
//! `// ccp-lint: allow(rule)` suppression syntax.
//!
//! [`SimError`]: ../ccp_errors/enum.SimError.html

pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod report;
pub mod rules;
pub mod symbols;

pub use callgraph::Workspace;
pub use engine::{
    lint_files, lint_source, lint_tree, walk, Finding, Outcome, Rule, Severity, SourceFile,
    UNUSED_SUPPRESSION,
};
pub use passes::{all_passes, Pass};
pub use report::{check_fixtures, render_fixtures, render_human, render_json, write_report};
pub use rules::all_rules;

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// A rule or pass scoped to a path that no longer exists checks
    /// nothing and says nothing; deleting a crate must fail here instead.
    #[test]
    fn every_scoped_path_exists_in_this_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut scoped: Vec<(&str, &str)> = rules::GLOBAL_EXCLUDES
            .iter()
            .map(|p| ("global exclusion", *p))
            .collect();
        for rule in all_rules() {
            scoped.extend(rule.scope().iter().map(|p| (rule.name(), *p)));
        }
        for pass in all_passes() {
            scoped.extend(pass.scope().iter().map(|p| (pass.name(), *p)));
        }
        for (check, path) in &scoped {
            assert!(
                root.join(path).exists(),
                "{check} is scoped to {path}, which does not exist in this workspace"
            );
        }
        for check in [
            "atomic-json-writes",
            "no-wallclock-in-sim",
            "no-lossy-cast-in-hot-path",
            "no-unbounded-reads",
            "no-dyn-scheme-in-hot-path",
            "no-panic-in-service-path",
            "deterministic-core-transitive",
            "lock-graph-acyclic",
        ] {
            assert!(
                scoped.iter().any(|(c, _)| *c == check),
                "{check} names no paths: its scope escaped this guard"
            );
        }
    }
}
