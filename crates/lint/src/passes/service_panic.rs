//! R2 (upgraded) — `no-panic-in-service-path`, interprocedural form.
//!
//! The per-file R2 of PR 4 scanned whole crates (`served`, `sim`,
//! `errors`) for panic-capable calls, which both over-approximated
//! (driver-only code in `sim` was flagged) and under-approximated
//! (panics in other crates reachable from a serving binary were
//! invisible). This pass follows the call graph instead: from the
//! serving entry points — the `ccp-served` / `ccp-client` binaries'
//! `main` and the public API of `crates/served` — every reachable
//! function is scanned for `.unwrap()`/`.expect()`/`panic!`-family
//! sinks. Call edges lexically inside a `catch_unwind(…)` argument list
//! are *not* traversed: the panic is absorbed at that boundary and
//! surfaces as a typed `SimError::Panic`, which is the sanctioned
//! containment idiom (job execution, sweep workers).

use crate::callgraph::Workspace;
use crate::engine::{Finding, Severity};
use crate::lexer::TokKind;
use crate::passes::Pass;

/// Method names that panic on the error/none case.
pub const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
/// Macros that unconditionally panic.
pub const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// The serving-path panic pass. See the module docs.
pub struct NoPanicInServicePath;

/// The serving library, whose public API is an entry point.
const LIB: &str = "crates/served/src/";
/// The serving binaries, whose `main` is an entry point.
const BINS: &str = "crates/served/src/bin/";

/// Whether a function is a serving entry point: `main` of a `served`
/// binary, or public API of the `served` library.
fn is_entry(ws: &Workspace, f: usize) -> bool {
    let d = &ws.symbols.fns[f];
    if d.in_test {
        return false;
    }
    let path = ws.files[d.file].path.as_str();
    if path.starts_with(BINS) {
        return d.name == "main";
    }
    d.is_pub && path.starts_with(LIB)
}

impl Pass for NoPanicInServicePath {
    fn name(&self) -> &'static str {
        "no-panic-in-service-path"
    }
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    fn describe(&self) -> &'static str {
        "ban .unwrap()/.expect()/panic!/unreachable! in code reachable from serving entry \
         points (served binaries, served public API); catch_unwind edges are not \
         followed"
    }
    fn scope(&self) -> &'static [&'static str] {
        &[LIB, BINS]
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        let entries: Vec<usize> = (0..ws.symbols.fns.len())
            .filter(|&f| is_entry(ws, f))
            .collect();
        let reach = ws.reach(&entries, false);
        let mut out = Vec::new();
        for f in 0..ws.symbols.fns.len() {
            if !reach.reached(f) || ws.symbols.fns[f].in_test {
                continue;
            }
            let def = &ws.symbols.fns[f];
            let Some((open, close)) = def.body else {
                continue;
            };
            let file = ws.file_of(f);
            let witness = reach.witness(ws, f);
            let isolated = crate::callgraph::catch_unwind_ranges(file, open, close);
            let mut j = open + 1;
            while j < close && j < file.n_code() {
                if let Some(&(_, nc)) = def.nested.iter().find(|&&(ns, nc)| ns <= j && j <= nc) {
                    j = nc + 1;
                    continue;
                }
                if file.in_test(file.tok(j).start)
                    || isolated.iter().any(|&(s, e)| j > s && j < e)
                    || file.tok(j).kind != TokKind::Ident
                {
                    j += 1;
                    continue;
                }
                let text = file.ct(j);
                let hit = if PANIC_METHODS.contains(&text) {
                    j > 0 && file.is_punct(j - 1, '.') && file.is_punct(j + 1, '(')
                } else if PANIC_MACROS.contains(&text) {
                    file.is_punct(j + 1, '!')
                } else {
                    false
                };
                if hit {
                    out.push(file.finding(
                        self.name(),
                        self.severity(),
                        j,
                        format!(
                            "`{text}` can panic on a serving path (call path: {witness} → \
                             `{text}`); return a typed `SimError`, or allow with a one-line \
                             justification if genuinely infallible"
                        ),
                    ));
                }
                j += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SourceFile;

    fn findings(specs: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace::build(
            specs
                .iter()
                .map(|(p, s)| SourceFile::analyze(*p, *s))
                .collect(),
        );
        NoPanicInServicePath.check(&ws)
    }

    #[test]
    fn panics_reachable_from_pub_served_api_are_flagged_with_witness() {
        let hits = findings(&[(
            "crates/served/src/server.rs",
            "pub fn listener_loop() { handle_conn(); }\n\
             fn handle_conn() { decode_frame(); }\n\
             fn decode_frame() { x.unwrap(); }\n\
             fn dead() { y.unwrap(); }\n",
        )]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 3);
        assert!(
            hits[0]
                .message
                .contains("listener_loop → handle_conn → decode_frame → `unwrap`"),
            "{}",
            hits[0].message
        );
    }

    #[test]
    fn panics_cross_crates_from_binary_mains() {
        let hits = findings(&[
            (
                "crates/served/src/bin/ccp_served.rs",
                "fn main() { ccp_sim::run(); }\n",
            ),
            (
                "crates/sim/src/lib.rs",
                "pub fn run() { step(); }\nfn step() { panic!(\"boom\"); }\n",
            ),
        ]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].path.ends_with("crates/sim/src/lib.rs"));
        assert!(hits[0].message.contains("main → run → step → `panic`"));
    }

    #[test]
    fn catch_unwind_isolates_both_edges_and_lexical_panics() {
        // The panic in `job` is only reachable through the isolated
        // edge; the lexical closure panic is inside the parens.
        let hits = findings(&[(
            "crates/served/src/server.rs",
            "pub fn worker() { let r = std::panic::catch_unwind(AssertUnwindSafe(|| { \
             job(); x.unwrap() })); }\n\
             fn job() { y.expect(\"inside the boundary\"); }\n",
        )]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn driver_binaries_and_tests_are_not_entries() {
        let hits = findings(&[
            (
                "crates/sim/src/bin/repro.rs",
                "fn main() { args.unwrap(); }\n",
            ),
            (
                "crates/served/src/server.rs",
                "#[cfg(test)]\nmod tests { pub fn t() { x.unwrap(); } }\n",
            ),
        ]);
        assert!(hits.is_empty(), "{hits:?}");
    }
}
